// Command layers is the memwall benchmark's per-layer tracer. It calls each
// layer's public functions itself and records a span around every call;
// it is the only part of the benchmark that imports memwall's internal
// packages.
//
//	layers trace -workload W -seed N -seconds S -memwall BIN -tmp DIR -ref REF.json -out TRACE.json
//	layers oracle > ref/serve-cells.json
//
// `trace` alternates traced and untraced in-process passes (the Figure 3
// grid and the trace-driven traffic sweep) for most of S seconds, then
// journals the grid into a checkpoint ledger and drives a short serve-mix
// session against `memwall serve`. It prints the per-layer metrics as the
// result line and writes every span, with IDs, parents and self times, to
// a Chrome-trace file. No memwall telemetry is enabled anywhere: an
// attached observer would turn off the grid's shared perfect runs.
//
// `oracle` computes the expected payload of every cell a serve-mix
// schedule can ask for (bench.CellSpace) with a direct core.Decompose;
// its output is the committed reference the harness checks serve
// against. The traced run re-derives its session's cells and checks
// them against that reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"memwall/memwallbench/bench"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "oracle":
		err = oracle()
	case len(os.Args) > 1 && os.Args[1] == "trace":
		err = traceRun(os.Args[2:])
	default:
		err = errors.New("usage: layers trace ... | layers oracle")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memwallbench layers:", err)
		os.Exit(1)
	}
}

func oracle() error {
	out, err := decomposeCells(context.Background(), bench.CellSpace(), runtime.NumCPU())
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func traceRun(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload the traced run accompanies")
	seed := fs.Uint64("seed", 1, "serve-session schedule seed")
	seconds := fs.Int("seconds", 10, "measurement time")
	memwall := fs.String("memwall", "", "memwall binary for the serve session")
	tmp := fs.String("tmp", os.TempDir(), "directory for checkpoint directories")
	ref := fs.String("ref", "", "serve-mix reference payloads (ref/"+bench.ServeRefFile+")")
	out := fs.String("out", "", "Chrome-trace output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memwall == "" || *out == "" || *ref == "" {
		return errors.New("trace needs -memwall, -ref and -out")
	}
	ctx := context.Background()
	workers := runtime.NumCPU()
	epoch := time.Now()
	// The serve session is one round of the serve-mix schedule.
	serveSeconds := int(bench.RoundEntries / bench.ServeRate)
	passDeadline := epoch.Add(time.Duration(*seconds-serveSeconds) * time.Second)

	// Traced passes (the tracer's copy of the grid) and untraced passes
	// (memwall's own Figure3Pool) alternate, so that drift on the host
	// falls on both equally; every pass must agree on the grid results,
	// the exact counts and the perfect runs.
	var t bench.Tally
	var tracedRecs []*recorder
	var tracedWall, plainWall []float64
	var grids []gridPass
	var traffics []trafficPass
	for i := 0; i < 2 || time.Now().Before(passDeadline); i++ {
		var rec *recorder
		var g gridPass
		var err error
		if i%2 == 0 {
			rec = &recorder{}
			g, err = runGrid(ctx, rec, workers)
		} else {
			g, err = programGrid(workers)
		}
		if err != nil {
			return err
		}
		tr, err := runTraffic(rec)
		if err != nil {
			return err
		}
		wall := (g.wall + tr.wall).Seconds()
		if rec != nil {
			tracedRecs = append(tracedRecs, rec)
			tracedWall = append(tracedWall, wall)
		} else {
			plainWall = append(plainWall, wall)
		}
		grids = append(grids, g)
		traffics = append(traffics, tr)
		t.Check(samePass(grids[0], g, traffics[0], tr))
	}
	fmt.Fprintf(os.Stderr, "memwallbench layers: %d passes (%d traced)\n", len(grids), len(tracedRecs))

	values := layerMetrics(tracedRecs, grids, traffics[0])
	values["trace.overhead_ratio"] = bench.Median(tracedWall) / bench.Median(plainWall)

	ledgerDir, err := os.MkdirTemp(*tmp, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ledgerDir)
	ledgerRec := &recorder{}
	lv, err := ledgerPass(ledgerRec, ledgerDir, grids[0].payloads, &t)
	if err != nil {
		return err
	}
	serveDir, err := os.MkdirTemp(*tmp, "serve-checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(serveDir)
	serveRec := &recorder{}
	sv, err := serveSession(ctx, serveRec, *memwall, serveDir, *ref, *seed, workers, &t)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{lv, sv} {
		for k, v := range m {
			values[k] = v
		}
	}
	if err := writeChromeTrace(*out, epoch, append(tracedRecs, ledgerRec, serveRec)...); err != nil {
		return err
	}
	if t.First != nil {
		fmt.Fprintln(os.Stderr, "memwallbench layers: first failure:", t.First)
	}
	fmt.Fprintf(os.Stderr, "memwallbench layers: %s: trace written to %s\n", *workloadName, *out)
	res, err := bench.NewResult(bench.PerLayer, values, t)
	if err != nil {
		return err
	}
	line, err := res.Line()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// samePass checks a pass against the first (a traced one): identical
// exact counts and grid results, and the same number of perfect runs,
// one per (program, core) pair — 3 per benchmark — whether the pass ran
// memwall's Figure3Pool or the tracer's copy of it.
func samePass(g0, g gridPass, t0, t trafficPass) error {
	want := 3 * g.cells / 6
	switch {
	case g.perfectRuns != want || g.perfectRuns != g0.perfectRuns:
		return fmt.Errorf("pass (traced %v) ran %d perfect runs, want %d", g.traced, g.perfectRuns, want)
	case g.counts != g0.counts:
		return fmt.Errorf("pass (traced %v) grid counts %+v differ from the traced pass's %+v", g.traced, g.counts, g0.counts)
	case t.counts != t0.counts:
		return fmt.Errorf("pass (traced %v) traffic counts %+v differ from the traced pass's %+v", g.traced, t.counts, t0.counts)
	case !reflect.DeepEqual(g.payloads, g0.payloads):
		return fmt.Errorf("pass (traced %v) grid results differ from the traced pass's", g.traced)
	}
	return nil
}

// layerMetrics derives the in-process per-layer metrics: times from the
// traced passes' spans and the runner's from the program passes (medians
// over passes), counts from the first pass.
func layerMetrics(recs []*recorder, grids []gridPass, tp trafficPass) map[string]float64 {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i, r := range recs {
		g := grids[2*i]
		d, _ := r.total("workload.Generate", nil, "")
		add("workload.generate_ms", ms(d))
		add("workload.alloc_mb", float64(g.allocBytes)/(1<<20))
		d, _ = r.total("corpus.Refs", nil, "")
		add("corpus.refs_ms", ms(d))
		d, _ = r.total("corpus.Future", nil, "")
		add("corpus.future_ms", ms(d))
		d, n := r.total("cache.RunRefs", nil, "refs")
		add("cache.ns_per_ref", float64(d)/float64(n))
		d, n = r.total("mtc.SimulateRefs", nil, "refs")
		add("mtc.ns_per_ref", float64(d)/float64(n))
		d, _ = r.total("core.PerfectTime", nil, "")
		add("core.perfect_ms", ms(d))
		d, _ = r.total("phase.infinite_bw", nil, "")
		add("core.infinite_bw_ms", ms(d))
		d, _ = r.total("phase.full", nil, "")
		add("core.full_ms", ms(d))
		for _, kind := range []string{"inorder", "ooo"} {
			keep := func(s span) bool { return s.Args["core"] == kind }
			var sum time.Duration
			var insts int64
			for _, name := range []string{"core.PerfectTime", "phase.infinite_bw", "phase.full"} {
				d, n := r.total(name, keep, "insts")
				sum += d
				insts += n
			}
			add("cpu."+kind+"_ns_per_inst", float64(sum)/float64(insts))
		}
	}
	// The runner's waits come from memwall's own Figure3Pool passes.
	for _, g := range grids {
		if !g.traced {
			add("runner.queue_wait_ms", bench.Median(g.queueWaits)*1e3)
			add("runner.idle_tail_ms", ms(g.idle))
		}
	}
	out := map[string]float64{}
	for name, vs := range per {
		out[name] = bench.Median(vs)
	}
	// Counted in the tracer's copy; samePass checks the program's
	// passes infer the same number.
	g := grids[0]
	out["core.perfect_runs_per_cell"] = float64(g.perfectRuns) / float64(g.cells)
	out["cpu.sim_insts"] = float64(g.counts.SimInsts)
	out["cpu.sim_cycles"] = float64(g.counts.SimCycles)
	out["mem.l1_misses"] = float64(g.counts.L1Misses)
	out["mem.l2_misses"] = float64(g.counts.L2Misses)
	out["mem.mem_traffic_bytes"] = float64(g.counts.MemTrafficBytes)
	out["cache.refs"] = float64(tp.counts.CacheRefs)
	out["mtc.refs"] = float64(tp.counts.MTCRefs)
	return out
}
