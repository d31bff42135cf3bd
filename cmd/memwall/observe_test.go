package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// The headline acceptance test: `memwall fig3 -metrics out.json -events
// out.jsonl` must produce a valid report with the run manifest, per-level
// cache counters, the MSHR occupancy histogram, and bus-utilization
// gauges, plus a Perfetto-loadable span stream.
func TestFig3MetricsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "out.json")
	events := filepath.Join(dir, "out.jsonl")
	args := []string{"-metrics", metrics, "-events", events,
		"-suite", "92", "-cachescale", "32"}
	capture(t, func() error { return runCommand("fig3", args) })

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("metrics file is not a valid report: %v", err)
	}
	m := rep.Manifest
	if m.Tool != "memwall" || m.Command != "fig3" {
		t.Errorf("manifest identifies %s/%s", m.Tool, m.Command)
	}
	if m.Seed != workload.BaseSeed {
		t.Errorf("manifest seed = %#x, want %#x", m.Seed, workload.BaseSeed)
	}
	if m.CacheScale != 32 {
		t.Errorf("manifest cacheScale = %d, want 32 (scraped from args)", m.CacheScale)
	}
	if m.WallSeconds <= 0 {
		t.Error("manifest wall time not recorded")
	}
	if rep.Fingerprint != m.Fingerprint() {
		t.Error("stored fingerprint does not match the manifest")
	}
	for _, c := range []string{
		"cpu.insts_retired", "cpu.cycles",
		"mem.l1.hits", "mem.l1.misses", "mem.l1.evictions", "mem.l1.writebacks",
		"mem.l2.hits", "mem.l2.misses",
		"mem.bus.l1l2_busy_cycles", "mem.bus.mem_busy_cycles",
	} {
		if rep.Metrics.Counters[c] <= 0 {
			t.Errorf("counter %s absent or zero", c)
		}
	}
	h, ok := rep.Metrics.Histograms["mem.l1.mshr_occupancy"]
	if !ok || h.Count == 0 {
		t.Error("MSHR occupancy histogram absent or empty")
	}
	for _, g := range []string{"mem.bus.l1l2_utilization", "mem.bus.mem_utilization", "cpu.ipc"} {
		if v := rep.Metrics.Gauges[g]; v <= 0 {
			t.Errorf("gauge %s = %v, want > 0", g, v)
		}
	}

	// The trace must be JSONL of Chrome trace events with sim and bench
	// spans.
	tr, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tr)), "\n")
	var sawSim, sawBench bool
	for _, line := range lines {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if strings.HasPrefix(e.Name, "sim:") {
			sawSim = true
		}
		if strings.HasPrefix(e.Name, "bench:") {
			sawBench = true
		}
	}
	if !sawSim || !sawBench {
		t.Errorf("trace missing spans (sim=%v bench=%v, %d lines)", sawSim, sawBench, len(lines))
	}
}

func TestProfileOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	out := capture(t, func() error {
		return runProfile(&env{}, []string{"-bench", "compress", "-suite", "92"})
	})
	for _, want := range []string{"sim-cycles/s", "sim-MIPS", "mem-refs/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q", want)
		}
	}
	for _, exp := range []string{"A", "B", "C", "D", "E", "F"} {
		if !strings.Contains(out, "\n"+exp+" ") {
			t.Errorf("profile output missing experiment %s row", exp)
		}
	}
}

// The envelope must tear down cleanly when no telemetry flag is given and
// when only profiles are requested.
func TestRunCommandProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuOut := filepath.Join(dir, "cpu.pb")
	heapOut := filepath.Join(dir, "heap.pb")
	capture(t, func() error {
		return runCommand("table3", []string{"-cpuprofile", cpuOut, "-memprofile", heapOut})
	})
	for _, p := range []string{cpuOut, heapOut} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// The trace-driven sweeps publish per-configuration cache counters.
func TestTable7MetricsReport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "out.json")
	capture(t, func() error { return runCommand("table7", []string{"-metrics", metrics}) })
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["cache.compress.64KB.accesses"] <= 0 {
		t.Error("table7 did not publish per-configuration cache counters")
	}
	if rep.Metrics.Gauges["cache.compress.64KB.miss_rate"] <= 0 {
		t.Error("table7 did not publish cache miss-rate gauges")
	}
}
