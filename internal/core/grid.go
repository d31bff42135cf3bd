// The one executor behind every timing grid: Figure 3, Table 6, the
// attribution sweep of `memwall explain` and every `memwall serve`
// request all turn (suite, benchmarks, machines, pool) into
// three-simulation cells through Grid.Run.
package core

import (
	"context"
	"fmt"
	"sync"

	"memwall/internal/attr"
	"memwall/internal/cpu"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// Grid is one (program × machine) sweep of the three-simulation
// decomposition.
type Grid struct {
	Suite workload.Suite
	// Benches names the grid's rows, in order.
	Benches []string
	// Program returns one benchmark's program. Run calls it only for the
	// cells it computes: a cell served by the checkpoint store or the
	// twin never generates a workload.
	Program  func(bench string) (*workload.Program, error)
	Machines []Machine
	// Span names each cell's trace span "<Span>:<bench>/<exp>".
	Span string
	// Key names each cell's checkpoint and twin key
	// "<Key>:<suite>:<bench>/<exp>" (see gridCellKey).
	Key string
	// Attr, when non-nil, attaches a fresh attribution collector to each
	// cell's full-system run (collectors are single-run state, so one is
	// built inside each task).
	Attr *attr.Options
}

// gridCellKey names one cell of a grid. Keys are suite-qualified so the
// SPEC92 and SPEC95 grids of one invocation never collide in a ledger,
// and prefixed by the grid name so different sweeps of the same cell
// (fig3, table6, explain) journal separately.
func gridCellKey(grid string, suite workload.Suite, benchmark, experiment string) string {
	return grid + ":" + suite.String() + ":" + benchmark + "/" + experiment
}

// WithPrograms returns g over already-generated programs: Benches in
// progs order, and Program looking them up by name.
func (g Grid) WithPrograms(progs []*workload.Program) Grid {
	byName := make(map[string]*workload.Program, len(progs))
	g.Benches = make([]string, len(progs))
	for i, p := range progs {
		g.Benches[i] = p.Name
		byName[p.Name] = p
	}
	g.Program = func(name string) (*workload.Program, error) { return byName[name], nil }
	return g
}

// Run simulates every benchmark on every machine over pool and returns
// the results benchmark-major, machine-minor. pool supplies the worker
// count, telemetry, checkpoint store, twin and fault injector; Run sets
// its TaskName and CellKey. ctx cancels the sweep at cell boundaries.
//
// Every cell gets its own instruction stream (the Decompose ownership
// rule), so concurrent cells never share mutable simulator state, and
// results are collected in grid order: the returned slice is
// byte-identical however the tasks were scheduled.
func (g Grid) Run(ctx context.Context, pool runner.Config) ([]DecomposeResult, error) {
	type cell struct {
		bench string
		m     Machine
	}
	tasks := make([]cell, 0, len(g.Benches)*len(g.Machines))
	for _, b := range g.Benches {
		for _, m := range g.Machines {
			tasks = append(tasks, cell{b, m})
		}
	}
	obs := pool.Obs
	pool.TaskName = func(i int) string { return g.Span + ":" + tasks[i].bench + "/" + tasks[i].m.Name }
	pool.CellKey = func(i int) string {
		return gridCellKey(g.Key, g.Suite, tasks[i].bench, tasks[i].m.Name)
	}
	// T_P depends only on the core configuration (see PerfectTime), and
	// Table 5 reuses cores across machines — A/B/C share one, D/E another —
	// so each (program, core) pair needs a single perfect run, not one per
	// machine. The cache is keyed up front and filled lazily under a
	// sync.Once, so concurrent cells agree on the value and checkpointed
	// cells that never execute never pay for it. Perfect runs publish no
	// metrics, and the Once makes the progress totals the same at any
	// worker count; only a tracer, which records one "sim:perfect" span
	// per run performed, needs every cell to run its own.
	var tps map[perfectKey]*sharedTP
	if obs.Tracer == nil {
		tps = make(map[perfectKey]*sharedTP)
		for _, t := range tasks {
			k := tpKey(t.bench, t.m.CPU)
			if tps[k] == nil {
				tps[k] = &sharedTP{}
			}
		}
	}
	return runner.Map(ctx, pool, len(tasks),
		func(ctx context.Context, i int, tracer *telemetry.Tracer) (DecomposeResult, error) {
			t := tasks[i]
			m := t.m
			p, err := g.Program(t.bench)
			if err != nil {
				return DecomposeResult{}, fmt.Errorf("%s/%s: %w", t.bench, m.Name, err)
			}
			// Metrics and Progress are shared, concurrency-safe hooks; the
			// tracer is re-based onto this worker's track.
			m.Obs = telemetry.Observation{Metrics: obs.Metrics, Tracer: tracer, Progress: obs.Progress}
			if g.Attr != nil {
				m.Attr = attr.New(*g.Attr)
			}
			// The shared perfect run gets its own stream too: see the
			// Decompose ownership rule.
			var res DecomposeResult
			if tps != nil {
				e := tps[tpKey(t.bench, m.CPU)]
				e.once.Do(func() { e.tp, e.err = PerfectTime(m, p.Stream()) })
				if err = e.err; err == nil {
					res, err = DecomposeWithTP(m, p.Stream(), e.tp)
				}
			} else {
				res, err = Decompose(m, p.Stream())
			}
			if err != nil {
				return DecomposeResult{}, fmt.Errorf("%s/%s: %w", t.bench, m.Name, err)
			}
			return res, nil
		})
}

// sharedTP is one (program, core) pair's perfect-run result, computed by
// whichever cell needs it first.
type sharedTP struct {
	once sync.Once
	tp   units.Cycles
	err  error
}

// perfectKey identifies a (program, core) pair for perfect-run sharing:
// every cpu.Config field that influences a simulation, and none of the
// instrumentation hooks.
type perfectKey struct {
	prog              string
	issueWidth        int
	lsUnits           int
	outOfOrder        bool
	ruuSlots          int
	lsqEntries        int
	predictorEntries  int
	mispredictPenalty int64
}

func tpKey(prog string, c cpu.Config) perfectKey {
	return perfectKey{
		prog:              prog,
		issueWidth:        c.IssueWidth,
		lsUnits:           c.LSUnits,
		outOfOrder:        c.OutOfOrder,
		ruuSlots:          c.RUUSlots,
		lsqEntries:        c.LSQEntries,
		predictorEntries:  c.PredictorEntries,
		mispredictPenalty: c.MispredictPenalty,
	}
}
