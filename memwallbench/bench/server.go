package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server is a running `memwall serve` process.
type Server struct {
	Base string // http://host:port
	cmd  *exec.Cmd
	logs *watchWriter
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// watchWriter collects a process's standard error and announces the
// first "listening on" address it sees.
type watchWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := listenRE.FindStringSubmatch(w.buf.String()); m != nil {
			w.found = true
			w.addr <- m[1]
		}
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// StartServer spawns `memwall serve` on an ephemeral port with args
// appended and returns once /healthz answers, with the time from spawn
// to that answer. Telemetry flags are refused (GuardArgs).
func StartServer(ctx context.Context, bin string, args ...string) (*Server, time.Duration, error) {
	argv := append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)
	if err := GuardArgs(argv); err != nil {
		return nil, 0, err
	}
	s := &Server{cmd: exec.Command(bin, argv...), logs: &watchWriter{addr: make(chan string, 1)}}
	s.cmd.Stderr = s.logs
	// A server never outlives the process that started it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting memwall serve: %w", err)
	}
	fail := func(err error) (*Server, time.Duration, error) {
		_, _ = s.Stop()
		return nil, 0, err
	}
	wait, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	select {
	case s.Base = <-s.logs.addr:
	case <-wait.Done():
		return fail(fmt.Errorf("memwall serve did not report its address: %s", s.logs))
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if wait.Err() != nil {
			return fail(fmt.Errorf("memwall serve /healthz never answered 200: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// Counters reads the counters of the server's /metricz snapshot.
func (s *Server) Counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Base+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("reading /metricz: %w", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	return snap.Counters, nil
}

// SimInsts reads the total simulated instructions from the first
// /v1/progress heartbeat: every simulation the server ran, across jobs.
func (s *Server) SimInsts(ctx context.Context) (int64, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Base+"/v1/progress", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading /v1/progress: %w", err)
	}
	defer resp.Body.Close()
	var line []byte
	for b := make([]byte, 1); ; {
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return 0, fmt.Errorf("reading /v1/progress: %w", err)
		}
		if b[0] == '\n' && len(line) > 0 {
			break
		}
		line = append(line, b[0])
	}
	var ev struct {
		SimInsts int64 `json:"simInsts"`
	}
	data, ok := strings.CutPrefix(strings.TrimSpace(string(line)), "data: ")
	if !ok {
		return 0, fmt.Errorf("unexpected /v1/progress frame %q", line)
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		return 0, fmt.Errorf("decoding /v1/progress frame: %w", err)
	}
	return ev.SimInsts, nil
}

// Stop drains the server with SIGTERM (SIGKILL after 60 s), waits for it
// to exit and returns its resource usage.
func (s *Server) Stop() (*syscall.Rusage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return nil, fmt.Errorf("signalling memwall serve: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("memwall serve did not drain within 60s; killed")
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if err != nil {
		return ru, fmt.Errorf("memwall serve: %w: %s", err, s.logs)
	}
	return ru, nil
}

// Discard stops an idle server whose drain does not matter, such as a
// set-up sample. memwall serve answers /healthz before it installs its
// SIGTERM handler, so a SIGTERM sent right after start-up may end it
// without a drain; for an idle server that still counts as stopped.
func (s *Server) Discard() error {
	_, err := s.Stop()
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	return err
}

// CPUSeconds is a process's user+sys CPU time.
func CPUSeconds(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// PeakRSSMB is a process's maximum resident set in MB (Linux reports
// ru_maxrss in KB).
func PeakRSSMB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
