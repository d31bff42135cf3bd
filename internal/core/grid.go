// The one executor behind every timing grid: Figure 3, Table 6 and the
// attribution sweep of `memwall explain` all turn (suite, programs,
// machines, pool) into three-simulation cells through Grid.Run.
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
	Suite    workload.Suite
	Progs    []*workload.Program
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

// Run simulates every program on every machine over pool and returns
// the results program-major, machine-minor. pool supplies the worker
// count, telemetry, checkpoint ledger, twin and fault injector; Run sets
// its TaskName and CellKey.
//
// Every cell gets its own instruction stream (the Decompose ownership
// rule), so concurrent cells never share mutable simulator state, and
// results are collected in grid order: the returned slice is
// byte-identical however the tasks were scheduled.
func (g Grid) Run(pool runner.Config) ([]DecomposeResult, error) {
	type cell struct {
		p *workload.Program
		m Machine
	}
	tasks := make([]cell, 0, len(g.Progs)*len(g.Machines))
	for _, p := range g.Progs {
		for _, m := range g.Machines {
			tasks = append(tasks, cell{p, m})
		}
	}
	obs := pool.Obs
	pool.TaskName = func(i int) string { return g.Span + ":" + tasks[i].p.Name + "/" + tasks[i].m.Name }
	pool.CellKey = func(i int) string {
		return gridCellKey(g.Key, g.Suite, tasks[i].p.Name, tasks[i].m.Name)
	}
	// T_P depends only on the core configuration (see PerfectTime), and
	// Table 5 reuses cores across machines — A/B/C share one, D/E another —
	// so each (program, core) pair needs a single perfect run, not one per
	// machine. The cache is keyed up front and filled lazily under a
	// sync.Once, so concurrent cells agree on the value and checkpointed
	// cells that never execute never pay for it. Telemetry observers see
	// one "sim:perfect" span per run performed, so sharing is disabled when
	// any hook is attached to keep traces and heartbeats per-cell exact.
	var tps map[perfectKey]*sharedTP
	if !obs.Enabled() {
		tps = make(map[perfectKey]*sharedTP)
		for _, t := range tasks {
			k := tpKey(t.p.Name, t.m.CPU)
			if tps[k] == nil {
				tps[k] = &sharedTP{}
			}
		}
	}
	return runner.Map(context.Background(), pool, len(tasks),
		func(ctx context.Context, i int, tracer *telemetry.Tracer) (DecomposeResult, error) {
			t := tasks[i]
			m := t.m
			// Metrics and Progress are shared, concurrency-safe hooks; the
			// tracer is re-based onto this worker's track.
			m.Obs = telemetry.Observation{Metrics: obs.Metrics, Tracer: tracer, Progress: obs.Progress}
			if g.Attr != nil {
				m.Attr = attr.New(*g.Attr)
			}
			// The shared perfect run gets its own stream too: see the
			// Decompose ownership rule.
			var res DecomposeResult
			var err error
			if tps != nil {
				e := tps[tpKey(t.p.Name, m.CPU)]
				e.once.Do(func() { e.tp, e.err = PerfectTime(m, t.p.Stream()) })
				if err = e.err; err == nil {
					res, err = DecomposeWithTP(m, t.p.Stream(), e.tp)
				}
			} else {
				res, err = Decompose(m, t.p.Stream())
			}
			if err != nil {
				return DecomposeResult{}, fmt.Errorf("%s/%s: %w", t.p.Name, m.Name, err)
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
// instrumentation hooks (which are nil whenever sharing is enabled).
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
