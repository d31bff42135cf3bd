// The selfcheck subcommand: a battery of cross-simulator invariants run
// over every workload, verifying the relationships the reproduction's
// conclusions rest on. Any FAIL indicates a simulator defect, not a
// calibration difference.
//
// The check grids shard over the -j worker pool (see internal/runner):
// each task owns its own streams and simulators, failures are collected
// in task order, and the emitted report is byte-identical for any worker
// count.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mem"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/units"
	"memwall/internal/workload"
)

func init() {
	register("selfcheck", "run cross-simulator invariant checks over all workloads", runSelfcheck)
}

type checkResult struct {
	name   string
	passed int
	failed []string
}

// collect folds ordered per-task failure messages ("" = pass) into a
// checkResult, preserving task order so the report is schedule-independent.
func (c *checkResult) collect(msgs []string) {
	for _, m := range msgs {
		if m != "" {
			c.failed = append(c.failed, m)
		} else {
			c.passed++
		}
	}
}

func runSelfcheck(env *env, args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	timing := fs.Bool("timing", true, "include the (slower) timing-model checks")
	benchList := fs.String("benches", "", "comma-separated workload subset to check (default: all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	names := workload.Names()
	if *benchList != "" {
		known := map[string]bool{}
		for _, n := range names {
			known[n] = true
		}
		names = nil
		for _, n := range strings.Split(*benchList, ",") {
			n = strings.TrimSpace(n)
			if !known[n] {
				return fmt.Errorf("selfcheck: unknown benchmark %q (known: %v)", n, workload.Names())
			}
			names = append(names, n)
		}
	}

	progs := map[string]*workload.Program{}
	for _, name := range names {
		p, err := env.program(name, *scale)
		if err != nil {
			return err
		}
		progs[name] = p
	}
	// pick intersects a check's fixed benchmark list with the -benches
	// filter, keeping the check's own order.
	pick := func(candidates ...string) []string {
		var out []string
		for _, c := range candidates {
			if progs[c] != nil {
				out = append(out, c)
			}
		}
		return out
	}

	ctx := context.Background()
	// gridPool threads the run's checkpoint ledger and fault injector
	// through every check grid; the per-check labels below double as the
	// ledger's cell keys.
	pool := func(label func(i int) string) runner.Config {
		return env.gridPool(*workers, label)
	}

	var results []checkResult

	// Check 1: the MTC never generates more traffic than the
	// fully-associative LRU cache of the same size (MIN dominance) —
	// Equation 6's G >= 1 for the matched configuration.
	c1 := checkResult{name: "MIN dominance (MTC <= fully-assoc LRU, 4B blocks)"}
	type sizedCell struct {
		name string
		size int
	}
	var grid1 []sizedCell
	for _, name := range names {
		for _, size := range []int{4 << 10, 32 << 10} {
			grid1 = append(grid1, sizedCell{name, size})
		}
	}
	msgs, err := runner.Map(ctx, pool(func(i int) string {
		return fmt.Sprintf("selfcheck:min-dominance:%s@%dKB", grid1[i].name, grid1[i].size>>10)
	}), len(grid1), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		g := grid1[i]
		// Tasks share one corpus entry per benchmark: the reference slice is
		// read-only and the word-grain future table is built once, no matter
		// how many (benchmark, size) cells land on the grid.
		e := env.corpus.Get(g.name, *scale)
		refs, err := e.Refs()
		if err != nil {
			return "", err
		}
		lru, err := cache.New(cache.Config{Size: g.size, BlockSize: 4, Assoc: 0})
		if err != nil {
			return "", err
		}
		lt := lru.RunRefs(refs).TrafficBytes()
		fut, err := e.Future(4)
		if err != nil {
			return "", err
		}
		mt, err := mtc.SimulateRefs(mtc.Config{Size: g.size, BlockSize: 4, Alloc: mtc.WriteValidate}, fut, refs)
		if err != nil {
			return "", err
		}
		if mt.TrafficBytes() > lt {
			return fmt.Sprintf("%s@%dKB: MTC %d > LRU %d", g.name, g.size>>10, mt.TrafficBytes(), lt), nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c1.collect(msgs)
	results = append(results, c1)

	// Check 2: cache traffic decreases (weakly) with fully-associative
	// LRU size — the inclusion property. The size ladder chains within a
	// benchmark, so each task walks one benchmark's ladder serially.
	c2 := checkResult{name: "LRU inclusion (traffic non-increasing with size)"}
	// Exported fields: a ladder is a checkpointed cell result, so it must
	// survive the ledger's JSON round-trip intact.
	type ladder struct {
		Passed int
		Failed []string
	}
	ladders, err := runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:lru-inclusion:" + names[i]
	}), len(names), func(ctx context.Context, i int, _ *telemetry.Tracer) (ladder, error) {
		refs, err := env.corpus.Get(names[i], *scale).Refs()
		if err != nil {
			return ladder{}, err
		}
		var l ladder
		var prev int64 = -1
		for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
			c, err := cache.New(cache.Config{Size: size, BlockSize: 32, Assoc: 0})
			if err != nil {
				return ladder{}, err
			}
			cur := c.RunRefs(refs).Misses
			if prev >= 0 && cur > prev {
				l.Failed = append(l.Failed, fmt.Sprintf("%s: misses rose %d -> %d at %dKB", names[i], prev, cur, size>>10))
			} else {
				l.Passed++
			}
			prev = cur
		}
		return l, nil
	})
	if err != nil {
		return err
	}
	for _, l := range ladders {
		c2.passed += l.Passed
		c2.failed = append(c2.failed, l.Failed...)
	}
	results = append(results, c2)

	// Check 3: traffic accounting conservation.
	c3 := checkResult{name: "traffic conservation (fetch+wb bytes match counters)"}
	msgs, err = runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:conservation:" + names[i]
	}), len(names), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		name := names[i]
		c, err := cache.New(cache.Config{Size: 16 << 10, BlockSize: 32, Assoc: 2})
		if err != nil {
			return "", err
		}
		refs, err := env.corpus.Get(name, *scale).Refs()
		if err != nil {
			return "", err
		}
		st := c.RunRefs(refs)
		if st.FetchBytes != units.Blocks(st.Fetches).Bytes(32) || st.Fetches != st.Misses {
			return name, nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c3.collect(msgs)
	results = append(results, c3)

	// Check 4: deterministic replay — two runs of everything agree.
	c4 := checkResult{name: "determinism (generation + simulation replay)"}
	replayNames := pick("compress", "swm", "vortex")
	msgs, err = runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:determinism:" + replayNames[i]
	}), len(replayNames), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		name := replayNames[i]
		// Deliberately bypasses the corpus: this check exists to prove a
		// fresh generation reproduces what the (possibly cached) corpus
		// copy produced.
		a, err := workload.Generate(name, *scale)
		if err != nil {
			return "", err
		}
		if len(a.Insts) != len(progs[name].Insts) {
			return name + ": generation differs", nil
		}
		run := func(p *workload.Program) units.Bytes {
			c, _ := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Assoc: 1})
			return c.Run(p.MemRefs()).TrafficBytes()
		}
		if run(a) != run(progs[name]) {
			return name + ": simulation differs", nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c4.collect(msgs)
	results = append(results, c4)

	// The timing checks run their (benchmark × machine) cells through the
	// grid executor, one grid per run of same-suite names, so cells come
	// back in the check's own order.
	type timedCell struct {
		name, exp string
		res       core.DecomposeResult
	}
	timingCells := func(check string, names []string, machines func(workload.Suite) ([]core.Machine, error)) ([]timedCell, error) {
		var out []timedCell
		for start := 0; start < len(names); {
			suite := progs[names[start]].Suite
			var ps []*workload.Program
			for ; start < len(names) && progs[names[start]].Suite == suite; start++ {
				ps = append(ps, progs[names[start]])
			}
			ms, err := machines(suite)
			if err != nil {
				return nil, err
			}
			res, err := core.Grid{Suite: suite, Machines: ms, Span: "selfcheck:" + check, Key: "selfcheck:" + check}.WithPrograms(ps).Run(context.Background(), pool(nil))
			if err != nil {
				return nil, err
			}
			for pi, p := range ps {
				for mi, m := range ms {
					out = append(out, timedCell{p.Name, m.Name, res[pi*len(ms)+mi]})
				}
			}
		}
		return out, nil
	}

	// Check 5 (timing): T_P <= T_I <= T on every machine.
	if *timing {
		c5 := checkResult{name: "decomposition ordering (T_P <= T_I <= T, machines A/C/F)"}
		cells, err := timingCells("ordering", pick("espresso", "su2cor", "li", "swim95"), func(suite workload.Suite) ([]core.Machine, error) {
			return machinesNamed(suite, *cacheScale, "A", "C", "F")
		})
		if err != nil {
			return err
		}
		msgs = nil
		for _, c := range cells {
			msg := ""
			if err := c.res.Validate(); err != nil {
				msg = fmt.Sprintf("%s/%s: %v", c.name, c.exp, err)
			}
			msgs = append(msgs, msg)
		}
		c5.collect(msgs)
		results = append(results, c5)

		// Check 6 (timing): wider buses never slow the full system down.
		c6 := checkResult{name: "bus-width monotonicity (2x width never slower)"}
		cells, err = timingCells("bus-width", pick("su2cor", "swm"), func(suite workload.Suite) ([]core.Machine, error) {
			ms, err := machinesNamed(suite, *cacheScale, "F", "F")
			if err != nil {
				return nil, err
			}
			ms[1].Name = "F-2xbus"
			ms[1].Mem.L1L2Bus.WidthBytes *= 2
			ms[1].Mem.MemBus.WidthBytes *= 2
			return ms, nil
		})
		if err != nil {
			return err
		}
		msgs = nil
		for i := 0; i < len(cells); i += 2 {
			base, wide := cells[i], cells[i+1]
			msg := ""
			if wide.res.T > base.res.T {
				msg = fmt.Sprintf("%s: %d -> %d cycles", base.name, base.res.T, wide.res.T)
			}
			msgs = append(msgs, msg)
		}
		c6.collect(msgs)
		results = append(results, c6)

		// Check 7 (timing): miss-accounting conservation. Every access
		// classifies as exactly one of scratchpad hit, L1 hit, merged miss,
		// or miss; and every L2 access (the L1 misses that fall through the
		// victim and stream buffers, plus tagged and stream-buffer
		// prefetches) classifies as exactly one of L2 hit, merged miss, or
		// miss. The in-flight forwarding path historically incremented
		// nothing, so the L2 ledger leaked. The grid includes a stream-
		// buffer + victim-cache variant of C so the buffer terms are
		// exercised, and E so prefetches are.
		c7 := checkResult{name: "miss accounting (L1 and L2 ledgers conserve)"}
		cells, err = timingCells("miss-accounting", pick("compress", "su2cor", "li"), func(suite workload.Suite) ([]core.Machine, error) {
			ms, err := machinesNamed(suite, *cacheScale, "A", "C", "E", "C")
			if err != nil {
				return nil, err
			}
			ms[3].Name = "C+buffers"
			ms[3].Mem.StreamBuffers = mem.StreamBufferConfig{Buffers: 4, Depth: 4}
			ms[3].Mem.VictimCache = mem.VictimCacheConfig{Entries: 4}
			return ms, nil
		})
		if err != nil {
			return err
		}
		msgs = nil
		for _, c := range cells {
			st := c.res.Full.Mem
			accesses := st.Loads + st.Stores
			classified := st.ScratchpadHits + st.L1Hits + st.L1MergedMisses + st.L1Misses
			l2Accesses := (st.L1Misses - st.VictimHits - st.StreamBufHits) + st.Prefetches + st.StreamBufPrefetches
			l2Classified := st.L2Hits + st.L2MergedMisses + st.L2Misses
			msg := ""
			switch {
			case accesses != classified:
				msg = fmt.Sprintf("%s/%s: L1 ledger leaks: %d accesses, %d classified", c.name, c.exp, accesses, classified)
			case l2Accesses != l2Classified:
				msg = fmt.Sprintf("%s/%s: L2 ledger leaks: %d accesses, %d classified", c.name, c.exp, l2Accesses, l2Classified)
			}
			msgs = append(msgs, msg)
		}
		c7.collect(msgs)
		results = append(results, c7)
	}

	bad := 0
	for _, r := range results {
		status := "PASS"
		if len(r.failed) > 0 {
			status = "FAIL"
			bad++
		}
		fmt.Printf("[%s] %-55s %d checks\n", status, r.name, r.passed+len(r.failed))
		for _, f := range r.failed {
			fmt.Printf("       %s\n", f)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invariant group(s) failed", bad)
	}
	fmt.Println("all invariants hold")
	return nil
}
