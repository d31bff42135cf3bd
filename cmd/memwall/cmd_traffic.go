// Subcommands for the trace-driven traffic studies: Tables 3, 7, 8, 9 and
// Figure 4, plus the effective-pin-bandwidth calculations of Equations
// 5 and 7.
//
// All of these sweep a (benchmark × configuration) grid over the same
// reference traces, so they draw the traces from the run-wide corpus:
// each benchmark materializes once, every configuration replays the
// shared slice (core.*Refs fast paths), and every MTC configuration
// replays against the trace's shared future table. Tables 7-9 and
// Figure 4 run their cells on the -j worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/tablefmt"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/units"
	"memwall/internal/workload"
)

func init() {
	register("table3", "Table 3: benchmark reference counts and data-set sizes", runTable3)
	register("table7", "Table 7: traffic ratios for 1KB-2MB direct-mapped caches", runTable7)
	register("table8", "Table 8: traffic inefficiencies vs the MTC", runTable8)
	register("fig4", "Figure 4: total traffic vs cache and MTC size", runFig4)
	register("table9", "Tables 9-10: inefficiency-gap factor isolation", runTable9)
	register("epin", "Equations 5 & 7: effective pin bandwidth and its bound", runEpin)
}

// cacheSizes are the column sizes of Tables 7 and 8.
var cacheSizes = []int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10,
	64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20,
}

func runTable3(env *env, args []string) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	scale := scaleFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	t := tablefmt.New("Table 3: benchmark trace lengths and data sets (surrogates at -scale)",
		"Benchmark", "suite", "insts (K)", "refs (K)", "data set (KB)")
	for _, name := range workload.Names() {
		p, err := env.program(name, *scale)
		if err != nil {
			return err
		}
		t.AddRow(name, p.Suite.String(),
			fmt.Sprintf("%.0f", float64(len(p.Insts))/1e3),
			fmt.Sprintf("%.0f", float64(p.RefCount())/1e3),
			fmt.Sprintf("%.0f", float64(p.DataSetBytes)/1024))
	}
	fmt.Println(t)
	return nil
}

// traces takes one corpus entry per benchmark and materializes them over
// workers: the reference slices, plus the future tables at blocks. The
// entries are taken here, once, and handed to every grid cell of their
// benchmark: with a nil (disabled) corpus each Get returns a fresh private
// entry, so a cell that called Get itself would regenerate the trace.
func (env *env) traces(names []string, scale, workers int, blocks ...int) ([]core.TraceBench, error) {
	entries := make([]*corpus.Entry, len(names))
	benches := make([]core.TraceBench, len(names))
	for i, name := range names {
		entries[i] = env.corpus.Get(name, scale)
		benches[i] = core.TraceBench{Name: name, Trace: entries[i]}
	}
	pool := runner.Config{Workers: workers, Obs: env.obs}
	if err := core.Materialize(context.Background(), pool, benches, blocks...); err != nil {
		return nil, err
	}
	for i, e := range entries {
		meta, err := e.Meta()
		if err != nil {
			return nil, err
		}
		benches[i].DataSetBytes = meta.DataSetBytes
	}
	return benches, nil
}

// spec92Traces is traces over the SPEC92 surrogates, the suite the paper
// runs Tables 7-9 on.
func (env *env) spec92Traces(scale, workers int, blocks ...int) ([]core.TraceBench, error) {
	return env.traces(workload.SuiteNames(workload.SPEC92), scale, workers, blocks...)
}

// sizeHeader is the column header row of the size-swept tables.
func sizeHeader(first string) []string {
	header := []string{first}
	for _, sz := range cacheSizes {
		header = append(header, tablefmt.Bytes(int64(sz)))
	}
	return header
}

func runTable7(env *env, args []string) error {
	fs := flag.NewFlagSet("table7", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	benches, err := env.spec92Traces(*scale, *workers)
	if err != nil {
		return err
	}
	rows, err := core.RatioGrid(context.Background(), env.gridPool(*workers, nil), "table7", benches, cacheSizes)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 7: traffic ratios for 32-byte block, direct-mapped caches", sizeHeader("Trace")...)
	// Render — and publish the per-configuration counters — from the
	// ordered results, outside the pool: a resumed run serves rows from
	// the ledger without re-simulating, and publishing here keeps its
	// metrics identical to an uninterrupted run's.
	for i, b := range benches {
		row := []string{b.Name}
		for j, res := range rows[i] {
			res.Stats.Publish(env.obs.Metrics,
				fmt.Sprintf("cache.%s.%s", b.Name, tablefmt.Bytes(int64(cacheSizes[j]))))
			if res.FitsDataSet {
				row = append(row, "<<<")
			} else {
				row = append(row, fmt.Sprintf("%.2f", res.R))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
	fmt.Println("(\"<<<\" marks caches at least as large as the data set, as in the paper.)")
	// The paper's Section 4.2 summary statistic: the arithmetic mean of R
	// over caches >= 64KB and smaller than each benchmark's data set
	// ("reasonably-sized on-chip caches reduce the traffic from the
	// processor by about half": mean 0.51).
	var sum float64
	var n int
	for i, b := range benches {
		for j, sz := range cacheSizes {
			if sz < 64<<10 || int64(sz) >= b.DataSetBytes {
				continue
			}
			sum += rows[i][j].R
			n++
		}
	}
	if n > 0 {
		fmt.Printf("mean R over >=64KB caches smaller than the data set: %.2f (paper: 0.51)\n", sum/float64(n))
	}
	fmt.Println()
	return nil
}

func runTable8(env *env, args []string) error {
	fs := flag.NewFlagSet("table8", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	benches, err := env.spec92Traces(*scale, *workers, trace.WordSize)
	if err != nil {
		return err
	}
	rows, err := core.InefficiencyGrid(context.Background(), env.gridPool(*workers, nil), "table8", benches, cacheSizes)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 8: traffic inefficiencies for 32-byte block, direct-mapped caches", sizeHeader("Trace")...)
	for i, b := range benches {
		row := []string{b.Name}
		for _, res := range rows[i] {
			if res.FitsDataSet {
				row = append(row, "<<<")
			} else {
				row = append(row, fmt.Sprintf("%.1f", res.G))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
	return nil
}

// fig4Curve is one curve of Figure 4: a 4-way cache of one block size, or
// a word-grain MTC of one allocation policy.
type fig4Curve struct {
	label string
	key   string
	// blockSize is the cache block size; 0 selects the MTC.
	blockSize int
	alloc     mtc.AllocPolicy
}

// fig4Curves are Figure 4's rows, in print order.
var fig4Curves = func() []fig4Curve {
	var cs []fig4Curve
	for _, bs := range []int{4, 8, 16, 32, 64, 128} {
		cs = append(cs, fig4Curve{label: fmt.Sprintf("4-way %dB blocks", bs), key: fmt.Sprintf("cache%dB", bs), blockSize: bs})
	}
	return append(cs,
		fig4Curve{label: "MTC write-allocate", key: "mtc-wa", alloc: mtc.WriteAllocate},
		fig4Curve{label: "MTC write-validate", key: "mtc-wv", alloc: mtc.WriteValidate})
}()

// simulates reports whether the curve has a point at size bytes: a cache
// needs at least eight blocks (the table prints "-" below that).
func (c fig4Curve) simulates(size int) bool { return c.blockSize == 0 || size >= c.blockSize*8 }

// traffic replays one benchmark's trace through the curve's cache or MTC
// of size bytes and returns the traffic below it.
func (c fig4Curve) traffic(tr core.RefTrace, size int) (units.Bytes, error) {
	refs, err := tr.Refs()
	if err != nil {
		return 0, err
	}
	if c.blockSize > 0 {
		cc, err := cache.New(cache.Config{Size: size, BlockSize: c.blockSize, Assoc: 4})
		if err != nil {
			return 0, err
		}
		return cc.RunRefs(refs).TrafficBytes(), nil
	}
	// One word-grain future table serves every MTC size and policy.
	fut, err := tr.Future(trace.WordSize)
	if err != nil {
		return 0, err
	}
	st, err := mtc.SimulateRefs(mtc.Config{Size: size, BlockSize: trace.WordSize, Alloc: c.alloc}, fut, refs)
	if err != nil {
		return 0, err
	}
	return st.TrafficBytes(), nil
}

func runFig4(env *env, args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	benchList := fs.String("bench", "compress,eqntott,swm", "comma-separated benchmarks to plot")
	plot := fs.Bool("plot", true, "render ASCII plots")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var names []string
	for _, name := range strings.Split(*benchList, ",") {
		names = append(names, strings.TrimSpace(name))
	}
	benches, err := env.traces(names, *scale, *workers, trace.WordSize)
	if err != nil {
		return err
	}
	// One task per plotted point, benchmark-major, then curve, then size.
	type cell struct{ bench, curve, size int }
	var tasks []cell
	for b := range benches {
		for c, curve := range fig4Curves {
			for s, sz := range cacheSizes {
				if curve.simulates(sz) {
					tasks = append(tasks, cell{b, c, s})
				}
			}
		}
	}
	name := func(i int) string {
		t := tasks[i]
		return "fig4:" + benches[t.bench].Name + "/" + fig4Curves[t.curve].key + "/" + tablefmt.Bytes(int64(cacheSizes[t.size]))
	}
	res, err := runner.Map(context.Background(), env.gridPool(*workers, name), len(tasks),
		func(ctx context.Context, i int, _ *telemetry.Tracer) (units.Bytes, error) {
			t := tasks[i]
			return fig4Curves[t.curve].traffic(benches[t.bench].Trace, cacheSizes[t.size])
		})
	if err != nil {
		return err
	}
	traffic := make(map[cell]units.Bytes, len(tasks))
	for i, t := range tasks {
		traffic[t] = res[i]
	}
	for b, bench := range benches {
		t := tablefmt.New(fmt.Sprintf("Figure 4 (%s): total traffic (KB) by cache/MTC size", bench.Name), sizeHeader("config")...)
		pl := tablefmt.Plot{
			Title:  fmt.Sprintf("Figure 4 (%s): traffic vs size, log-log", bench.Name),
			XLabel: "bytes", LogX: true, LogY: true, Height: 16,
		}
		for c, curve := range fig4Curves {
			row := []string{curve.label}
			var xs, ys []float64
			for s, sz := range cacheSizes {
				tb, ok := traffic[cell{b, c, s}]
				if !ok {
					row = append(row, "-")
					continue
				}
				kb := float64(tb) / 1024
				row = append(row, fmt.Sprintf("%.0f", kb))
				xs = append(xs, float64(sz))
				ys = append(ys, kb)
			}
			t.AddRow(row...)
			series := curve.label
			if curve.blockSize > 0 {
				series = fmt.Sprintf("%dB blocks", curve.blockSize)
			}
			pl.Add(tablefmt.Series{Name: series, X: xs, Y: ys})
		}
		fmt.Println(t)
		if *plot {
			fmt.Println(pl.String())
		}
	}
	return nil
}

func runTable9(env *env, args []string) error {
	fs := flag.NewFlagSet("table9", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	benches, err := env.spec92Traces(*scale, *workers, trace.WordSize, 32)
	if err != nil {
		return err
	}
	cols, err := core.FactorGrid(context.Background(), env.gridPool(*workers, nil), "table9", benches)
	if err != nil {
		return err
	}
	header := []string{"Factor"}
	for _, b := range benches {
		header = append(header, b.Name)
	}
	t := tablefmt.New("Table 9: inefficiency gap for different optimizations (64KB caches; 16KB espresso)", header...)
	// Print the experiment-pair legend (Table 10) first.
	legend := tablefmt.New("Table 10: experimental parameters",
		"Factor", "Exp1", "Exp2")
	specs := core.Factors(64 << 10)
	rows := make([][]string, len(specs))
	for i, spec := range specs {
		legend.AddRow(spec.Name, spec.Exp1.Label, spec.Exp2.Label)
		rows[i] = []string{spec.Name}
	}
	fmt.Println(legend)
	for _, col := range cols {
		for i, r := range col {
			rows[i] = append(rows[i], fmt.Sprintf("%.1f", r.DeltaG))
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	fmt.Println(t)
	return nil
}

func runEpin(env *env, args []string) error {
	fs := flag.NewFlagSet("epin", flag.ContinueOnError)
	scale := scaleFlag(fs)
	pinBW := fs.Float64("pinbw", 1600, "raw pin bandwidth in MB/s (R10000-class package)")
	size := fs.Int("cachekb", 64, "on-chip L1 size in KB")
	l2kb := fs.Int("l2kb", 0, "optional on-chip L2 size in KB (0 = single level); Eq. 5 then uses R1*R2")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	benches, err := env.spec92Traces(*scale, 0, trace.WordSize)
	if err != nil {
		return err
	}
	t := tablefmt.New(fmt.Sprintf("Effective pin bandwidth, %dKB on-chip cache, B_pin=%.0f MB/s", *size, *pinBW),
		"Benchmark", "R", "E_pin (MB/s)", "G", "OE_pin (MB/s)")
	var rs, gs []float64
	for _, b := range benches {
		name, e := b.Name, b.Trace
		cfg := cache.Config{Size: *size << 10, BlockSize: 32, Assoc: 1}
		rr, err := core.MeasureRatioRefs(cfg, e, b.DataSetBytes)
		if err != nil {
			return err
		}
		ir, err := core.MeasureInefficiencyRefs(cfg, e, b.DataSetBytes)
		if err != nil {
			return err
		}
		if rr.FitsDataSet {
			t.AddRow(name, "<<<", "-", "-", "-")
			continue
		}
		ratios := []float64{rr.R}
		if *l2kb > 0 {
			hier, err := cache.NewHierarchy(
				cache.Config{Size: *size << 10, BlockSize: 32, Assoc: 1},
				cache.Config{Size: *l2kb << 10, BlockSize: 64, Assoc: 4},
			)
			if err != nil {
				return err
			}
			refs, err := e.Refs()
			if err != nil {
				return err
			}
			ratios = hier.Run(trace.NewSliceStream(refs))
		}
		epin := core.EffectivePinBandwidth(*pinBW, ratios...)
		oepin := core.OptimalEffectivePinBandwidth(*pinBW, []float64{ir.G}, []float64{rr.R})
		t.AddRow(name,
			fmt.Sprintf("%.2f", rr.R),
			fmt.Sprintf("%.0f", epin),
			fmt.Sprintf("%.1f", ir.G),
			fmt.Sprintf("%.0f", oepin))
		rs = append(rs, rr.R)
		gs = append(gs, ir.G)
	}
	fmt.Println(t)
	fmt.Println("E_pin = B_pin / R (Eq. 5); OE_pin = B_pin * G / R (Eq. 7).")
	fmt.Println()
	return nil
}
