// The attribution grid behind `memwall explain`: the Figure 3 sweep with
// a time-attribution collector attached to every cell's full-system run.
package core

import (
	"context"

	"memwall/internal/attr"
	"memwall/internal/runner"
	"memwall/internal/workload"
)

// ExplainCell is one (benchmark, experiment) cell of an attribution
// sweep.
type ExplainCell struct {
	Benchmark  string
	Experiment string
	Result     DecomposeResult
}

// ExplainPool runs the (benchmark × experiment) grid like Figure3Pool
// but with attribution enabled: each cell's full-system run carries its
// own attr.Collector, and the cell's DecomposeResult.Attr holds the
// resulting record. Cell keys are "explain:"-prefixed so an explain
// sweep never collides with a fig3 sweep in a shared checkpoint ledger.
func ExplainPool(suite workload.Suite, progs []*workload.Program, cacheScale int, opts attr.Options, pool runner.Config) ([]ExplainCell, error) {
	machines := MachinesScaled(suite, cacheScale)
	results, err := Grid{Suite: suite, Machines: machines, Span: "explain", Key: "explain", Attr: &opts}.WithPrograms(progs).Run(context.TODO(), pool)
	if err != nil {
		return nil, err
	}
	out := make([]ExplainCell, 0, len(results))
	for bi, p := range progs {
		for mi, m := range machines {
			out = append(out, ExplainCell{
				Benchmark:  p.Name,
				Experiment: m.Name,
				Result:     results[bi*len(machines)+mi],
			})
		}
	}
	return out, nil
}

// BuildConfigReport folds one explain cell into the report row the
// `memwall explain` command and the CI validation consume: the paper
// decomposition (exact by construction after Decompose's monotonicity
// clamp), the ledger's per-cause cycles, and the skew between the two
// accountings. includeRecord controls whether the full series/ledger
// record is embedded (it dominates report size).
func BuildConfigReport(suite workload.Suite, c ExplainCell, includeRecord bool) attr.ConfigReport {
	res := c.Result
	r := attr.ConfigReport{
		Suite:      suite.String(),
		Benchmark:  c.Benchmark,
		Experiment: c.Experiment,
		TP:         int64(res.TP),
		TL:         int64(res.TI - res.TP),
		TB:         int64(res.T - res.TI),
		T:          int64(res.T),
	}
	if r.T > 0 {
		sum := r.TP + r.TL + r.TB
		r.ReconcileError = absF(float64(sum-r.T)) / float64(r.T)
	}
	if res.Attr != nil {
		if led, ok := res.Attr.Ledgers[CoreStallLedger]; ok {
			r.CauseCycles = map[string]float64{}
			for c := attr.Cause(0); c < attr.NumCauses; c++ {
				r.CauseCycles[c.String()] = led.CauseCycles(c)
			}
			if r.T > 0 {
				memLedger := led.CauseCycles(attr.CauseLatency) + led.CauseCycles(attr.CauseBandwidth)
				memDecomp := float64(r.TL + r.TB)
				r.AttributionSkew = absF(memLedger-memDecomp) / float64(r.T)
			}
		}
		if includeRecord {
			r.Record = res.Attr
		}
	}
	return r
}

// CoreStallLedger is the ledger name the cores register (see
// internal/cpu); exported so report consumers can find it in records.
const CoreStallLedger = "attr.core.stalls"

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
