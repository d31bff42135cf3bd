// Kill-and-resume determinism tests: a grid run interrupted by an
// injected worker kill after k cells, then resumed from its checkpoint
// ledger at a different worker count, must emit byte-identical output to
// an uninterrupted run — the acceptance contract of -checkpoint-dir /
// -resume (see DESIGN.md §11). The injected panic must also fail the
// interrupted run with the dying cell's identity in the error, never
// crash the process.
package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memwall/internal/telemetry"
)

// runObservedCapture runs one full observed CLI invocation — the global
// envelope (checkpoint ledger, fault injector, telemetry sinks) around a
// subcommand — capturing stdout and returning the command's error instead
// of failing on it, since the interrupted runs here are supposed to fail.
func runObservedCapture(t *testing.T, opts globalOpts, name string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		r.Close() // keep the capture fd-neutral (the fd-leak tests count)
		done <- buf.String()
	}()
	runErr := runObserved(name, args, opts, func(env *env) error { return dispatch(env, name, args) })
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// testKillAndResume is the shared scenario: uninterrupted baseline at one
// worker count, a checkpointed run killed mid-grid by an injected worker
// panic, then a -resume at a different worker count that must reproduce
// the baseline byte-for-byte.
func testKillAndResume(t *testing.T, name string, args []string, kill string) {
	t.Helper()
	dir := t.TempDir()
	base := globalOpts{corpus: true}

	want, err := runObservedCapture(t, base, name, append(args, "-j", "2")...)
	if err != nil {
		t.Fatalf("uninterrupted %s run failed: %v", name, err)
	}

	interrupted := base
	interrupted.checkpointDir = dir
	interrupted.faultSchedule = kill
	_, err = runObservedCapture(t, interrupted, name, append(args, "-j", "2")...)
	if err == nil {
		t.Fatalf("%s run with %s did not fail — the injected worker kill was swallowed", name, kill)
	}
	// The panic must surface as a task error naming the dying cell, per
	// the runner's worker-boundary recover — never a bare process crash
	// (reaching this assertion at all proves the recover worked).
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), name+":") {
		t.Errorf("interrupted %s run error lacks the cell identity: %v", name, err)
	}

	// Some cells completed and were journaled before the kill; the ledger
	// file must exist for -resume to have anything to serve.
	ledgers, globErr := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if globErr != nil || len(ledgers) == 0 {
		t.Fatalf("interrupted run left no checkpoint ledger in %s (glob err %v)", dir, globErr)
	}

	resumed := base
	resumed.checkpointDir = dir
	resumed.resume = true
	resumed.metricsPath = filepath.Join(dir, "resume-metrics.json")
	got, err := runObservedCapture(t, resumed, name, append(args, "-j", "5")...)
	if err != nil {
		t.Fatalf("resumed %s run failed: %v", name, err)
	}
	if got != want {
		t.Errorf("resumed %s output differs from an uninterrupted run:\n uninterrupted:\n%s\n resumed:\n%s", name, want, got)
	}

	// The resumed run must actually have served cells from the ledger, not
	// silently recomputed everything (a stale fingerprint would do that).
	raw, err := os.ReadFile(resumed.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["checkpoint.hits"] <= 0 {
		t.Errorf("resumed %s run served no cells from the ledger (checkpoint.hits = %v)",
			name, rep.Metrics.Counters["checkpoint.hits"])
	}
}

func TestTable7KillAndResume(t *testing.T) {
	testKillAndResume(t, "table7", nil, "panic@3")
}

// The other trace-driven grids journal single cells (table8, fig4) and
// whole factor columns (table9); each must survive the ledger's JSON
// round-trip byte for byte.
func TestTable8KillAndResume(t *testing.T) {
	testKillAndResume(t, "table8", nil, "panic@3")
}

func TestTable9KillAndResume(t *testing.T) {
	testKillAndResume(t, "table9", nil, "panic@3")
}

func TestFig4KillAndResume(t *testing.T) {
	testKillAndResume(t, "fig4", []string{"-bench", "espresso"}, "panic@3")
}

func TestTable6KillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	testKillAndResume(t, "table6", []string{"-suite", "92"}, "panic@3")
}

func TestSelfcheckKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	testKillAndResume(t, "selfcheck", []string{"-benches", "compress,li,su2cor"}, "panic@3")
}
