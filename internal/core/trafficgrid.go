// The executor behind the trace-driven traffic grids: Tables 7, 8 and 9,
// for `memwall table7/table8/table9` and for report.Collect alike, shard
// their cells over a runner pool and collect them in grid order.
package core

import (
	"context"

	"memwall/internal/cache"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/tablefmt"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
)

// TraceBench is one benchmark's trace as the traffic grids replay it.
// Every cell of the benchmark shares Trace: a corpus entry materializes
// once however many cells replay it, and the grids never ask the corpus
// for it again (a disabled corpus would hand each ask a fresh private
// entry and regenerate the trace per cell).
type TraceBench struct {
	Name  string
	Trace RefTrace
	// DataSetBytes is the benchmark's data-set size; caches at least
	// this large are the paper's "<<<" cells.
	DataSetBytes int64
}

// Materialize builds each trace's reference slice and its future tables
// at blocks over pool, one task per trace, so the grid cells that follow
// replay shared, already-built state instead of queueing on the first
// cell's build. Only pool's worker count and telemetry are used: a
// materialized trace is corpus state, not a grid cell, so it is neither
// journaled nor a fault-injection point.
func Materialize(ctx context.Context, pool runner.Config, benches []TraceBench, blocks ...int) error {
	cfg := runner.Config{
		Workers:  pool.Workers,
		Obs:      pool.Obs,
		TaskName: func(i int) string { return "trace:" + benches[i].Name },
	}
	_, err := runner.Map(ctx, cfg, len(benches), func(ctx context.Context, i int, _ *telemetry.Tracer) (struct{}, error) {
		tr := benches[i].Trace
		if _, err := tr.Refs(); err != nil {
			return struct{}{}, err
		}
		for _, bs := range blocks {
			if _, err := tr.Future(bs); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	return err
}

// trafficCache is the cache of Tables 7 and 8: direct-mapped, 32-byte
// blocks.
func trafficCache(size int) cache.Config {
	return cache.Config{Size: size, BlockSize: 32, Assoc: 1}
}

// ratioRow is one benchmark's Table 7 row as the checkpoint ledger
// journals it (exported field: it must survive the JSON round-trip).
type ratioRow struct {
	Cells []RatioResult
}

// RatioGrid measures Table 7: the traffic ratio of every benchmark under
// a direct-mapped 32-byte-block cache of every size, benchmark-major.
// Each benchmark is one task, keyed "<key>:<bench>", that walks the whole
// size ladder, so a checkpointed cell is a complete table row.
func RatioGrid(ctx context.Context, pool runner.Config, key string, benches []TraceBench, sizes []int) ([][]RatioResult, error) {
	pool.TaskName = func(i int) string { return key + ":" + benches[i].Name }
	pool.CellKey = nil
	rows, err := runner.Map(ctx, pool, len(benches), func(ctx context.Context, i int, _ *telemetry.Tracer) (ratioRow, error) {
		b := benches[i]
		row := ratioRow{Cells: make([]RatioResult, 0, len(sizes))}
		for _, sz := range sizes {
			res, err := MeasureRatioRefs(trafficCache(sz), b.Trace, b.DataSetBytes)
			if err != nil {
				return ratioRow{}, err
			}
			row.Cells = append(row.Cells, res)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]RatioResult, len(rows))
	for i, r := range rows {
		out[i] = r.Cells
	}
	return out, nil
}

// InefficiencyGrid measures Table 8: the traffic inefficiency G of every
// benchmark under a direct-mapped 32-byte-block cache of every size,
// benchmark-major. Each (benchmark, size) cell is one task, keyed
// "<key>:<bench>/<size>". A cell whose cache holds the whole data set
// runs no simulation: its result only reports FitsDataSet, since the
// table prints "<<<" there and G would be thrown away.
func InefficiencyGrid(ctx context.Context, pool runner.Config, key string, benches []TraceBench, sizes []int) ([][]InefficiencyResult, error) {
	out := make([][]InefficiencyResult, len(benches))
	type cell struct{ bench, size int }
	var tasks []cell
	for b, tb := range benches {
		out[b] = make([]InefficiencyResult, len(sizes))
		for s, sz := range sizes {
			cfg := trafficCache(sz)
			if fitsDataSet(cfg.Size, tb.DataSetBytes) {
				out[b][s] = InefficiencyResult{CacheConfig: cfg, FitsDataSet: true}
				continue
			}
			tasks = append(tasks, cell{b, s})
		}
	}
	pool.TaskName = func(i int) string {
		t := tasks[i]
		return key + ":" + benches[t.bench].Name + "/" + tablefmt.Bytes(int64(sizes[t.size]))
	}
	pool.CellKey = nil
	res, err := runner.Map(ctx, pool, len(tasks), func(ctx context.Context, i int, _ *telemetry.Tracer) (InefficiencyResult, error) {
		t := tasks[i]
		b := benches[t.bench]
		return MeasureInefficiencyRefs(trafficCache(sizes[t.size]), b.Trace, b.DataSetBytes)
	})
	if err != nil {
		return nil, err
	}
	for i, t := range tasks {
		out[t.bench][t.size] = res[i]
	}
	return out, nil
}

// FactorCacheSize is the cache size of a benchmark's Table 9 column:
// 64KB, except espresso's 16KB — the paper shrinks espresso's cache to
// stay below its data set.
func FactorCacheSize(bench string) int {
	if bench == "espresso" {
		return 16 << 10
	}
	return 64 << 10
}

// FactorGrid measures Table 9: one MeasureFactors column per benchmark at
// FactorCacheSize, in benchmark order. Each column is one task, keyed
// "<key>:<bench>"; its six distinct simulations stay together so the
// column's memo still runs each of them once.
func FactorGrid(ctx context.Context, pool runner.Config, key string, benches []TraceBench) ([][]FactorResult, error) {
	pool.TaskName = func(i int) string { return key + ":" + benches[i].Name }
	pool.CellKey = nil
	return runner.Map(ctx, pool, len(benches), func(ctx context.Context, i int, _ *telemetry.Tracer) ([]FactorResult, error) {
		b := benches[i]
		_, res, err := MeasureFactors(FactorCacheSize(b.Name), b.Trace)
		return res, err
	})
}

// canonicalMTC is the MTC that G compares a cache against (Section 5.2):
// fully associative, word blocks, MIN with bypassing, write-validate.
func canonicalMTC(size int) mtc.Config {
	return mtc.Config{Size: size, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
}

// fitsDataSet reports whether a cache of size bytes holds the whole data
// set (dataSetBytes > 0): the region the paper marks "<<<".
func fitsDataSet(size int, dataSetBytes int64) bool {
	return dataSetBytes > 0 && int64(size) >= dataSetBytes
}
