package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// Decompose with an Observation attached must time all three phases, emit
// one span per simulation, and publish the full-system run's counters.
func TestDecomposeObserved(t *testing.T) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MachineByName(workload.SPEC92, "C", 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	reg := telemetry.NewRegistry()
	m.Obs = telemetry.Observation{Metrics: reg, Tracer: telemetry.NewTracer(sink)}

	res, err := Decompose(m, prog.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall.Perfect <= 0 || res.Wall.InfiniteBW <= 0 || res.Wall.Full <= 0 {
		t.Errorf("phase wall times not recorded: %+v", res.Wall)
	}
	if res.Wall.Total() < res.Wall.Full {
		t.Error("total wall less than one phase")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		names = append(names, e.Name)
	}
	for _, want := range []string{"sim:perfect", "sim:infinite-bw", "sim:full"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q span in trace (got %v)", want, names)
		}
	}

	snap := reg.Snapshot()
	// Only the full-system run publishes: instructions counted once.
	if got := snap.Counters["cpu.insts_retired"]; got != res.Full.Insts {
		t.Errorf("cpu.insts_retired = %d, want %d (full run only)", got, res.Full.Insts)
	}
	if snap.Counters["mem.l1.misses"] != res.Full.Mem.L1Misses {
		t.Error("full-run L1 misses not published")
	}
	if _, ok := snap.Histograms["mem.l1.mshr_occupancy"]; !ok {
		t.Error("MSHR occupancy histogram not registered through Decompose")
	}
}

// Figure3Pool with telemetry attached wraps each benchmark in a span and
// aggregates counters across experiments.
func TestFigure3Observed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	reg := telemetry.NewRegistry()
	obs := telemetry.Observation{Metrics: reg, Tracer: telemetry.NewTracer(sink)}
	cells, err := Figure3Pool(workload.SPEC92, []*workload.Program{prog}, 16, runner.Config{Workers: 1, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	sink.Close()
	if !strings.Contains(buf.String(), "bench:compress") {
		t.Error("no benchmark span emitted")
	}
	var wantInsts int64
	for _, c := range cells {
		wantInsts += c.Result.Full.Insts
	}
	if got := reg.Snapshot().Counters["cpu.insts_retired"]; got != wantInsts {
		t.Errorf("aggregated insts = %d, want %d", got, wantInsts)
	}
}

func TestObservationEnabled(t *testing.T) {
	var o telemetry.Observation
	if o.Enabled() {
		t.Error("zero Observation reports enabled")
	}
	o.Metrics = telemetry.NewRegistry()
	if !o.Enabled() {
		t.Error("Observation with registry reports disabled")
	}
}
