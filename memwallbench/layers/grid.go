package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/twin"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// cliCacheScale is memwall fig3's default -cachescale.
const cliCacheScale = 16

// counts are a pass's exact simulated totals; a speed-up must leave them
// unchanged, and every pass of a run must agree on them.
type counts struct {
	SimInsts, SimCycles      int64 // every simulation run: perfect, infinite-bandwidth, full
	L1Misses, L2Misses       int64 // full runs
	MemTrafficBytes          int64 // full runs
	CacheRefs, MTCRefs       int64 // traffic pass
	CacheTraffic, MTCTraffic int64 // traffic pass, bytes
}

// gridPass is one in-process Figure 3 grid, both suites, with programs
// generated once and one runner.Map per suite, as `memwall fig3 -suite
// both -j N` runs it. A program pass calls core.Figure3Pool itself; a
// traced pass runs the tracer's copy of it (runSuite), which repeats its
// sharing of one perfect run per (program, core) pair (A/B/C and D/E)
// with a span around every layer call.
type gridPass struct {
	traced bool
	wall   time.Duration
	counts counts
	// perfectRuns is counted as the copy runs them; for a program pass it
	// is inferred from the results (see programGrid).
	perfectRuns int
	cells       int
	allocBytes  uint64
	// queueWaits are the cells' waits, in seconds, from Map's start to a
	// worker claiming them; idle is workers x elapsed - summed cell busy.
	queueWaits []float64
	idle       time.Duration
	// payloads are the cells' results as serve journals them, by
	// suite-qualified cell key, for the checkpoint pass.
	payloads map[string][]byte
}

// cellPayload mirrors serve's journaled cell shape.
type cellPayload struct {
	Decomposition core.Decomposition `json:"decomposition"`
	Counts        cpu.Result         `json:"counts"`
}

// coreKey identifies the cpu.Config fields a perfect run depends on.
func coreKey(c cpu.Config) string {
	return fmt.Sprintf("%d/%d/%t/%d/%d/%d/%d", c.IssueWidth, c.LSUnits, c.OutOfOrder, c.RUUSlots, c.LSQEntries, c.PredictorEntries, c.MispredictPenalty)
}

func coreKind(c cpu.Config) string {
	if c.OutOfOrder {
		return "ooo"
	}
	return "inorder"
}

// generate builds both suites' programs the way the CLI does, with a
// span around each workload.Generate when rec is non-nil.
func (g *gridPass) generate(rec *recorder, gridID string) (map[workload.Suite][]*workload.Program, error) {
	progs := map[workload.Suite][]*workload.Program{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, suite := range gridSuites {
		for _, name := range twin.TimingBenchmarks(suite) {
			t0 := time.Now()
			p, err := workload.Generate(name, 1)
			rec.add("workload.Generate", "", gridID, 0, t0, time.Now(), map[string]any{"benchmark": name})
			if err != nil {
				return nil, err
			}
			progs[suite] = append(progs[suite], p)
		}
	}
	runtime.ReadMemStats(&after)
	g.allocBytes = after.TotalAlloc - before.TotalAlloc
	return progs, nil
}

var gridSuites = []workload.Suite{workload.SPEC92, workload.SPEC95}

// programGrid runs one grid pass through memwall's own core.Figure3Pool,
// with no observer attached, so that it shares perfect runs as the CLI
// does. Figure3Pool does not report its perfect runs; a cell that ran
// its own has a non-zero Wall.Perfect, and the cells that did not must
// have shared one per (program, core) pair, so that is what is counted.
func programGrid(workers int) (gridPass, error) {
	g := gridPass{payloads: map[string][]byte{}}
	start := time.Now()
	progs, err := g.generate(nil, "")
	if err != nil {
		return g, err
	}
	for _, suite := range gridSuites {
		stats := &runner.CellStats{}
		mapStart := time.Now()
		bds, err := core.Figure3Pool(suite, progs[suite], cliCacheScale, runner.Config{Workers: workers, Cells: stats})
		if err != nil {
			return g, err
		}
		g.addRunnerStats(stats, workers, time.Since(mapStart))
		byName := map[string]*workload.Program{}
		for _, p := range progs[suite] {
			byName[p.Name] = p
		}
		machines := map[string]core.Machine{}
		for _, m := range core.MachinesScaled(suite, cliCacheScale) {
			machines[m.Name] = m
		}
		shared := map[string]bool{}
		for _, bd := range bds {
			p, res := byName[bd.Benchmark], bd.Result
			if k := p.Name + "|" + coreKey(machines[bd.Experiment].CPU); res.Wall.Perfect > 0 || !shared[k] {
				shared[k] = res.Wall.Perfect == 0
				g.perfectRuns++
				g.counts.SimInsts += int64(len(p.Insts))
				g.counts.SimCycles += int64(res.TP)
			}
			if err := g.addCell(suite, bd.Benchmark, bd.Experiment, res); err != nil {
				return g, err
			}
		}
	}
	g.wall = time.Since(start)
	return g, nil
}

// runGrid runs one pass of the tracer's copy of Figure3Pool; every layer
// call is a span under one grid span.
func runGrid(ctx context.Context, rec *recorder, workers int) (gridPass, error) {
	g := gridPass{traced: true, payloads: map[string][]byte{}}
	start := time.Now()
	gridID := rec.id("grid")
	progs, err := g.generate(rec, gridID)
	if err != nil {
		return g, err
	}
	for _, suite := range gridSuites {
		if err := g.runSuite(ctx, rec, gridID, workers, suite, progs[suite]); err != nil {
			return g, err
		}
	}
	g.wall = time.Since(start)
	rec.add("grid", gridID, "", 0, start, time.Now(), map[string]any{"cells": g.cells})
	return g, nil
}

// addRunnerStats adds one runner.Map's queue waits and idle worker time.
func (g *gridPass) addRunnerStats(stats *runner.CellStats, workers int, elapsed time.Duration) {
	var busy float64
	for _, r := range stats.Records() {
		g.queueWaits = append(g.queueWaits, r.QueueSeconds)
		busy += r.WallSeconds
	}
	g.idle += time.Duration(float64(workers)*elapsed.Seconds()*1e9 - busy*1e9)
}

// addCell adds one cell's infinite-bandwidth and full runs to the exact
// counts, and its payload as serve journals it.
func (g *gridPass) addCell(suite workload.Suite, bench, exp string, res core.DecomposeResult) error {
	g.cells++
	g.counts.SimInsts += 2 * res.Full.Insts
	g.counts.SimCycles += int64(res.TI) + res.Full.Cycles
	g.counts.L1Misses += res.Full.Mem.L1Misses
	g.counts.L2Misses += res.Full.Mem.L2Misses
	g.counts.MemTrafficBytes += int64(res.Full.Mem.MemTrafficBytes)
	b, err := json.Marshal(cellPayload{res.Decomposition, res.Full})
	if err != nil {
		return err
	}
	g.payloads[core.Figure3CellKey(suite, bench, exp)] = b
	return nil
}

func (g *gridPass) runSuite(ctx context.Context, rec *recorder, gridID string, workers int, suite workload.Suite, progs []*workload.Program) error {
	machines := core.MachinesScaled(suite, cliCacheScale)
	type task struct {
		p *workload.Program
		m core.Machine
	}
	type perfect struct {
		once sync.Once
		tp   units.Cycles
		err  error
	}
	var tasks []task
	shared := map[string]*perfect{}
	for _, p := range progs {
		for _, m := range machines {
			tasks = append(tasks, task{p, m})
			if k := p.Name + "|" + coreKey(m.CPU); shared[k] == nil {
				shared[k] = &perfect{}
			}
		}
	}
	lanes := make(chan int, workers) // one Chrome-trace thread per worker
	for i := 1; i <= workers; i++ {
		lanes <- i
	}
	var mu sync.Mutex
	stats := &runner.CellStats{}
	mapID := rec.id("runner.Map")
	mapStart := time.Now()
	results, err := runner.Map(ctx, runner.Config{Workers: workers, Cells: stats}, len(tasks),
		func(ctx context.Context, i int, _ *telemetry.Tracer) (core.DecomposeResult, error) {
			lane := <-lanes
			defer func() { lanes <- lane }()
			t := tasks[i]
			key := core.Figure3CellKey(suite, t.p.Name, t.m.Name)
			cellID := rec.id("cell")
			cellStart := time.Now()
			defer func() { rec.add("cell", cellID, mapID, lane, cellStart, time.Now(), map[string]any{"key": key}) }()
			args := map[string]any{"machine": t.m.Name, "core": coreKind(t.m.CPU), "insts": int64(len(t.p.Insts))}

			e := shared[t.p.Name+"|"+coreKey(t.m.CPU)]
			e.once.Do(func() {
				t0 := time.Now()
				tp, err := core.PerfectTime(t.m, t.p.Stream())
				rec.add("core.PerfectTime", "", cellID, lane, t0, time.Now(), args)
				e.tp, e.err = tp, err
				mu.Lock()
				g.perfectRuns++
				g.counts.SimInsts += int64(len(t.p.Insts))
				g.counts.SimCycles += int64(tp)
				mu.Unlock()
			})
			if e.err != nil {
				return core.DecomposeResult{}, e.err
			}
			t0 := time.Now()
			res, err := core.DecomposeWithTP(t.m, t.p.Stream(), e.tp)
			if err != nil {
				return res, fmt.Errorf("%s: %w", key, err)
			}
			decID := rec.id("decompose")
			rec.add("core.DecomposeWithTP", decID, cellID, lane, t0, time.Now(), nil)
			// The phase spans are placed from the returned PhaseWall: the
			// infinite-bandwidth run, then the full run.
			mid := t0.Add(res.Wall.InfiniteBW)
			rec.add("phase.infinite_bw", "", decID, lane, t0, mid, args)
			rec.add("phase.full", "", decID, lane, mid, mid.Add(res.Wall.Full), args)
			return res, nil
		})
	rec.add("runner.Map", mapID, gridID, 0, mapStart, time.Now(), map[string]any{"suite": suite.String()})
	if err != nil {
		return err
	}
	g.addRunnerStats(stats, workers, time.Since(mapStart))
	for i, res := range results {
		if err := g.addCell(suite, tasks[i].p.Name, tasks[i].m.Name, res); err != nil {
			return err
		}
	}
	return nil
}
