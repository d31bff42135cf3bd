// Determinism regression tests: the run manifest fingerprints results for
// cross-run comparison, so every simulated count — and every emitted
// table — must be byte-identical between in-process replays. These tests
// are the dynamic counterpart of the detlint analyzer.
package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/workload"
)

// TestExperimentADeterministicReplay runs the experiment-A timing
// decomposition twice on the same generated workload and requires the
// rendered results (everything except simulator wall time) to agree
// exactly.
func TestExperimentADeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	p, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MachineByName(p.Suite, "A", 16)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		res, err := core.Decompose(m, p.Stream())
		if err != nil {
			t.Fatal(err)
		}
		// Wall is deliberately excluded: it measures the host, not the model.
		return fmt.Sprintf("%+v|%+v", res.Decomposition, res.Full)
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("experiment A decomposition differs between replays:\n run 1: %s\n run 2: %s", first, second)
	}
}

// TestTable7DeterministicReplay captures the full Table 7 traffic-ratio
// emission twice and requires byte-identical output.
func TestTable7DeterministicReplay(t *testing.T) {
	first := capture(t, func() error { return runTable7(&env{}, nil) })
	second := capture(t, func() error { return runTable7(&env{}, nil) })
	if first != second {
		t.Errorf("table7 output differs between replays:\n run 1:\n%s\n run 2:\n%s", first, second)
	}
}

// TestFig3ParallelDeterminism requires the Figure 3 emission under a
// parallel worker pool to be byte-identical to the serial path: the
// runner's ordered collection means -j only changes wall time, never
// output.
func TestFig3ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	serial := capture(t, func() error { return runFig3(&env{}, []string{"-suite", "92", "-j", "1"}) })
	parallel := capture(t, func() error { return runFig3(&env{}, []string{"-suite", "92", "-j", "8"}) })
	if serial != parallel {
		t.Errorf("fig3 output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", serial, parallel)
	}
}

// TestTrafficParallelDeterminism requires the trace-driven sweeps to be
// byte-identical between -j 1 and -j 8, with a shared corpus and with
// the disabled (nil) one, whose every Get is a fresh private entry.
func TestTrafficParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats every traffic sweep four times")
	}
	envs := []struct {
		name string
		make func() *env
	}{
		{"corpus", func() *env { return withCorpus(corpus.Options{}) }},
		{"nil corpus", func() *env { return &env{} }},
	}
	for _, c := range []struct {
		name string
		run  func(*env, []string) error
		args []string
	}{
		{"table7", runTable7, nil},
		{"table8", runTable8, nil},
		{"table9", runTable9, nil},
		{"fig4", runFig4, []string{"-bench", "espresso"}},
	} {
		for _, e := range envs {
			args := func(j string) []string { return append(append([]string(nil), c.args...), "-j", j) }
			serial := capture(t, func() error { return c.run(e.make(), args("1")) })
			parallel := capture(t, func() error { return c.run(e.make(), args("8")) })
			if serial != parallel {
				t.Errorf("%s (%s) output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", c.name, e.name, serial, parallel)
			}
		}
	}
}

// TestExportParallelDeterminism pins report.Collect, which runs Tables 7-9
// through the same grids as the CLI, to the committed JSON at -j 1 and
// -j 8.
func TestExportParallelDeterminism(t *testing.T) {
	for _, j := range []string{"1", "8"} {
		diffGolden(t, capture(t, func() error { return runExport(&env{}, []string{"-notiming", "-j", j}) }), "export_notiming.golden")
	}
}

// TestSelfcheckParallelDeterminism requires the selfcheck report under a
// parallel worker pool to be byte-identical to the serial path. The
// -benches subset keeps the runtime test-sized while still covering the
// sharded timing checks (li and su2cor appear in the decomposition-
// ordering and bus-width grids).
func TestSelfcheckParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	args := func(j string) []string { return []string{"-benches", "compress,li,su2cor", "-j", j} }
	serial := capture(t, func() error { return runSelfcheck(&env{}, args("1")) })
	parallel := capture(t, func() error { return runSelfcheck(&env{}, args("8")) })
	if serial != parallel {
		t.Errorf("selfcheck output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", serial, parallel)
	}
}

// TestFig3TwinParallelDeterminism requires the twin-served Figure 3 and
// Table 6 emissions to be byte-identical between worker counts:
// predictions come from a read-only cell table and the sampled
// ground-truth subset is selected by task index, so -j changes wall time
// only. The calibration output is captured (and discarded) once; every
// run then loads the same persisted model.
func TestFig3TwinParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	model := filepath.Join(t.TempDir(), "model.json")
	capture(t, func() error {
		return runTwinCalibrate(&env{}, []string{"-suite", "92", "-o", model, "-j", "8"})
	})
	args := func(j string) []string {
		return []string{"-suite", "92", "-twin", "-twin-model", model, "-j", j}
	}
	for _, c := range []struct {
		name string
		run  func(*env, []string) error
	}{{"fig3", runFig3}, {"table6", runTable6}} {
		serial := capture(t, func() error { return c.run(&env{}, args("1")) })
		parallel := capture(t, func() error { return c.run(&env{}, args("8")) })
		if serial != parallel {
			t.Errorf("%s -twin output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", c.name, serial, parallel)
		}
	}
}
