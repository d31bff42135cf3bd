// Serve-subcommand and cancellation-robustness tests at the CLI layer:
// the -smoke self-test against its committed golden output, and the
// cancel-then-resume regression — an injected mid-grid cancellation must
// leave the checkpoint ledger resumable (and leak no file descriptors),
// with the resumed run byte-identical to an uninterrupted one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memwall/internal/telemetry"
)

// TestServeSmokeGolden runs the full `memwall serve -smoke` path
// in-process — listener, healthz, one POSTed cell, drain, drainz — and
// diffs its stdout against the committed golden file. This is the CI
// gate that the served cell payload stays byte-identical release to
// release (see examples/serve_smoke_golden.json).
func TestServeSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	got, err := runObservedCapture(t, globalOpts{corpus: true}, "serve", "-smoke")
	if err != nil {
		t.Fatalf("serve -smoke failed: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve_smoke_golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("serve -smoke output differs from examples/serve_smoke_golden.json\n got:\n%s\nwant:\n%s", got, want)
	}
}

// countFDs returns the number of open file descriptors, or skips on
// platforms without /proc.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}

// TestCancelThenResume: an injected cancel@N kills a checkpointed grid
// mid-run. The failure must surface as context.Canceled (not a crash),
// leak no file descriptors, and leave a ledger from which a -resume run
// reproduces the uninterrupted output byte-for-byte.
func TestCancelThenResume(t *testing.T) {
	dir := t.TempDir()
	base := globalOpts{corpus: true}

	want, err := runObservedCapture(t, base, "table7", "-j", "2")
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	fdsBefore := countFDs(t)
	interrupted := base
	interrupted.checkpointDir = dir
	interrupted.faultSchedule = "cancel@3"
	_, err = runObservedCapture(t, interrupted, "table7", "-j", "2")
	if err == nil {
		t.Fatal("cancelled run did not fail — the injected cancel was swallowed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run error is not context.Canceled: %v", err)
	}
	if fdsAfter := countFDs(t); fdsAfter != fdsBefore {
		t.Errorf("cancelled run leaked file descriptors: %d before, %d after", fdsBefore, fdsAfter)
	}

	// The cells completed before the cancel are journaled; the ledger
	// must exist and be loadable.
	ledgers, globErr := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if globErr != nil || len(ledgers) == 0 {
		t.Fatalf("cancelled run left no checkpoint ledger in %s (glob err %v)", dir, globErr)
	}

	resumed := base
	resumed.checkpointDir = dir
	resumed.resume = true
	resumed.metricsPath = filepath.Join(dir, "resume-metrics.json")
	got, err := runObservedCapture(t, resumed, "table7", "-j", "3")
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if got != want {
		t.Errorf("resumed output differs from an uninterrupted run:\n uninterrupted:\n%s\n resumed:\n%s", want, got)
	}

	raw, err := os.ReadFile(resumed.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["checkpoint.hits"] <= 0 {
		t.Errorf("resumed run served no cells from the ledger (checkpoint.hits = %v)",
			rep.Metrics.Counters["checkpoint.hits"])
	}
}

// TestServeRegistered: the serve command is registered but excluded from
// `memwall all` (a long-running service would keep `all` from
// terminating).
func TestServeRegistered(t *testing.T) {
	found := false
	for _, c := range commands {
		if c.name == "serve" {
			found = true
		}
	}
	if !found {
		t.Fatal("serve is not registered")
	}
	if !allExcluded["serve"] {
		t.Error("serve must be excluded from `memwall all`")
	}
	for _, n := range allOrder() {
		if n == "serve" {
			t.Error("allOrder includes serve")
		}
	}
}

// TestServeSmokeWithFaultSchedule: the global -fault-schedule flag
// threads into the server's ledger I/O — a slowwrite fault delays the
// journal write but the smoke run still succeeds with identical output.
func TestServeSmokeWithFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	opts := globalOpts{corpus: true, checkpointDir: dir, faultSchedule: "slowwrite@1"}
	got, err := runObservedCapture(t, opts, "serve", "-smoke")
	if err != nil {
		t.Fatalf("serve -smoke under slowwrite failed: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve_smoke_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("smoke output under slowwrite differs from golden:\n%s", got)
	}
	// The delayed journal write still landed: the ledger exists.
	if ledgers, _ := filepath.Glob(filepath.Join(dir, "run-*.json")); len(ledgers) == 0 {
		t.Errorf("no ledger written under slowwrite fault")
	}
}

// TestServeSigtermAtStartupDrains: a SIGTERM sent the moment /healthz
// first answers must drain the server (exit 0, "draining" on stderr),
// not kill it, so the signal handler has to be in place before the
// listener serves. The start-up window is narrow, hence the repeats.
func TestServeSigtermAtStartupDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the memwall binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to build the binary: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "memwall")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for run := 0; run < 100; run++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin, "serve", "-addr", addr)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatalf("run %d: /healthz never answered: %v\n%s", run, err, stderr.String())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		if err != nil || !strings.Contains(stderr.String(), "draining") {
			t.Fatalf("run %d: SIGTERM right after start-up: exit %v, want 0 with a drain\n%s", run, err, stderr.String())
		}
	}
}
