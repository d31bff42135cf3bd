// The six machine configurations of the paper's Section 3 (Tables 4–5),
// experiments A through F, for both the SPEC92 and SPEC95 parameter sets.
package core

import (
	"context"
	"fmt"

	"memwall/internal/cpu"
	"memwall/internal/mem"
	"memwall/internal/runner"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// nsToCycles converts a latency in nanoseconds to processor cycles at the
// given clock, rounding up.
func nsToCycles(ns float64, clockMHz int) int64 {
	cycles := ns * float64(clockMHz) / 1000.0
	c := int64(cycles)
	if float64(c) < cycles {
		c++
	}
	return c
}

// memConfig builds the Table 4 memory system for a suite at a clock. The
// cacheScale divisor shrinks the cache capacities to match size-reduced
// workloads (see MachinesScaled).
func memConfig(suite workload.Suite, clockMHz int, l1Block, l2Block, mshrs int, prefetch bool, cacheScale int) mem.Config {
	busRatio := 3 // bus/proc clock 1/3 (SPEC92)
	l1Size := 128 * 1024
	l2Size := 1 << 20
	if suite == workload.SPEC95 {
		busRatio = 4       // bus/proc clock 1/4 (SPEC95)
		l1Size = 64 * 1024 // 64KB data cache (the I-cache is untimed here)
		l2Size = 2 << 20
	}
	if cacheScale > 1 {
		l1Size /= cacheScale
		l2Size /= cacheScale
		if min := 8 * l1Block; l1Size < min {
			l1Size = min
		}
		if min := 16 * l2Block; l2Size < min {
			l2Size = min
		}
	}
	return mem.Config{
		L1: mem.LevelConfig{
			Size: l1Size, BlockSize: l1Block, Assoc: 1,
			AccessCycles: 1, MSHRs: mshrs,
		},
		L2: mem.LevelConfig{
			Size: l2Size, BlockSize: l2Block, Assoc: 4,
			AccessCycles: nsToCycles(30, clockMHz), MSHRs: 8,
		},
		L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: busRatio}, // 128 bits
		MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: busRatio},  // 64 bits
		MemAccessCycles: nsToCycles(90, clockMHz),
		TaggedPrefetch:  prefetch,
	}
}

// cpuConfig builds a Table 5 core.
func cpuConfig(suite workload.Suite, ooo bool, big bool) cpu.Config {
	cfg := cpu.Config{
		IssueWidth:        4,
		LSUnits:           2,
		PredictorEntries:  8 * 1024,
		MispredictPenalty: 3,
	}
	if suite == workload.SPEC95 {
		cfg.PredictorEntries = 16 * 1024
	}
	if ooo {
		cfg.OutOfOrder = true
		cfg.MispredictPenalty = 7
		if suite == workload.SPEC92 {
			cfg.RUUSlots, cfg.LSQEntries = 16, 8
			if big {
				cfg.RUUSlots, cfg.LSQEntries = 64, 32
			}
		} else {
			cfg.RUUSlots, cfg.LSQEntries = 64, 32
			if big {
				cfg.RUUSlots, cfg.LSQEntries = 128, 64
			}
		}
	}
	return cfg
}

// Machines returns the paper's experiments A–F for a benchmark suite with
// the exact Table 4 cache sizes:
//
//	A  in-order, blocking caches, 32B/64B blocks
//	B  in-order, blocking caches, 64B/128B blocks
//	C  in-order, lockup-free caches, 32B/64B blocks
//	D  out-of-order (RUU), lockup-free
//	E  D plus tagged prefetching
//	F  E with a larger RUU/LSQ and a faster clock
func Machines(suite workload.Suite) []Machine {
	return MachinesScaled(suite, 1)
}

// MachinesScaled returns the experiments with L1 and L2 capacities divided
// by cacheScale. The surrogate workloads are size-reduced relative to the
// SPEC data sets (Table 3) so that simulations stay fast; dividing the
// caches by the same factor preserves the data-set-to-cache ratios that
// produce the paper's stall structure (the SPEC95 data sets are 4–16x the
// 2MB L2; an unscaled L2 would hold the reduced workloads entirely and
// hide every bandwidth stall).
func MachinesScaled(suite workload.Suite, cacheScale int) []Machine {
	clock := 300
	fClock := 300
	if suite == workload.SPEC95 {
		clock = 400
		fClock = 600
	}
	const lockupFree = 8 // MSHRs in the lockup-free configurations
	ms := []Machine{
		{Name: "A", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 32, 64, 1, false, cacheScale), ClockMHz: clock},
		{Name: "B", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 64, 128, 1, false, cacheScale), ClockMHz: clock},
		{Name: "C", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, false, cacheScale), ClockMHz: clock},
		{Name: "D", CPU: cpuConfig(suite, true, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, false, cacheScale), ClockMHz: clock},
		{Name: "E", CPU: cpuConfig(suite, true, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, true, cacheScale), ClockMHz: clock},
		{Name: "F", CPU: cpuConfig(suite, true, true),
			Mem: memConfig(suite, fClock, 32, 64, lockupFree, true, cacheScale), ClockMHz: fClock},
	}
	return ms
}

// MachineByName returns the named experiment for a suite at the given
// cache scale (see MachinesScaled).
func MachineByName(suite workload.Suite, name string, cacheScale int) (Machine, error) {
	for _, m := range MachinesScaled(suite, cacheScale) {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("core: unknown experiment %q (want A-F)", name)
}

// Figure3CellKey names one cell of the Figure 3 grid. It is the stable
// identity shared by the checkpoint ledger and the analytical-twin
// surrogate (internal/twin): both address cells by this key, so a twin
// built from a fitted model can serve exactly the cells Figure3Pool asks
// for. Keys are suite-qualified so the SPEC92 and SPEC95 grids of one
// invocation never collide.
func Figure3CellKey(suite workload.Suite, benchmark, experiment string) string {
	return gridCellKey("fig3", suite, benchmark, experiment)
}

// BenchmarkDecomposition is one cell of Figure 3: a benchmark run on one
// experiment machine.
type BenchmarkDecomposition struct {
	Benchmark  string
	Experiment string
	Result     DecomposeResult
	// NormTime is execution time normalised to experiment A's processing
	// time T_P, the y-axis of Figure 3.
	NormTime float64
}

// Figure3Pool runs all six experiments over the given programs on pool
// and normalises each benchmark's execution times to experiment A's T_P,
// reproducing the bars of the paper's Figure 3. cacheScale shrinks the
// hierarchy to match size-reduced workloads (see MachinesScaled); pass 1
// for the paper-exact Table 4 sizes. Spans keep the historical
// "bench:<name>/<exp>" form; cell keys are Figure3CellKey.
//
// A benchmark whose experiment A processing time is unavailable or zero
// is an explicit error rather than a silent NormTime of 0.
func Figure3Pool(suite workload.Suite, progs []*workload.Program, cacheScale int, pool runner.Config) ([]BenchmarkDecomposition, error) {
	machines := MachinesScaled(suite, cacheScale)
	results, err := Grid{Suite: suite, Machines: machines, Span: "bench", Key: "fig3"}.WithPrograms(progs).Run(context.TODO(), pool)
	if err != nil {
		return nil, err
	}
	return normalizeFigure3(progs, machines, results)
}

// normalizeFigure3 turns the raw grid results (benchmark-major, machine-
// minor, matching the task order of Grid.Run) into Figure 3 cells
// normalised to experiment A's processing time T_P. A benchmark with no
// experiment A result, or one whose T_P is zero, is an explicit error:
// the historical behaviour of silently emitting NormTime 0 rendered as
// garbage bars in the plots and tables downstream.
func normalizeFigure3(progs []*workload.Program, machines []Machine, results []DecomposeResult) ([]BenchmarkDecomposition, error) {
	nm := len(machines)
	out := make([]BenchmarkDecomposition, 0, len(results))
	for bi, p := range progs {
		var baseTP units.Cycles
		for mi, m := range machines {
			if m.Name == "A" {
				baseTP = results[bi*nm+mi].TP
			}
		}
		if baseTP <= 0 {
			return nil, fmt.Errorf("core: %s: experiment A missing or zero processing time (T_P=%d); cannot normalise Figure 3", p.Name, baseTP)
		}
		for mi, m := range machines {
			res := results[bi*nm+mi]
			if m.ClockMHz <= 0 {
				return nil, fmt.Errorf("core: machine %s has nonpositive clock %d MHz", m.Name, m.ClockMHz)
			}
			// Clock changes (experiment F) rescale cycle counts;
			// normalise in wall-clock terms.
			scale := float64(machines[0].ClockMHz) / float64(m.ClockMHz)
			out = append(out, BenchmarkDecomposition{
				Benchmark:  p.Name,
				Experiment: m.Name,
				Result:     res,
				NormTime:   float64(res.T) * scale / float64(baseTP),
			})
		}
	}
	return out, nil
}
