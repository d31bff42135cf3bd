// Package bench holds what the memwall benchmark's harness and tracer share:
// the metric registry, the result line, host provenance, reference-output
// checks, the seeded serve-mix schedule and its open-loop load generator,
// and the `memwall serve` process wrapper.
//
// It imports only the standard library, so the end-to-end harness
// (memwallbench/harness) keeps building however memwall's internal
// packages are refactored; only the tracer (memwallbench/layers)
// depends on internal APIs.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric is one benchmark metric as BENCHMARK.json declares it.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an end-to-end metric, what it measures.
	Moves string
}

// EndToEnd are the metrics of an untraced run, timed from outside the
// memwall process. Every workload reports all of them; an operation is
// one memwall invocation (fig3-grid, traffic-sweep) or one HTTP request
// (serve-mix). Times are scaled to the nominal host speed (HostSpeed).
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", "median of the run's set-ups, at the nominal host speed: memwall start-up probe before each invocation (CLI workloads); spawn until /healthz answers (serve-mix)"},
	{"latency_p50_ms", "ms", "lower", "at the nominal host speed: median grid or sweep time on the CLI workloads (a sweep's is the sum of its four commands' medians); median request latency from its due time on serve-mix"},
	{"cpu_s", "s", "lower", "at the nominal host speed: user+sys CPU of memwall per grid or sweep (summed per-command medians), or per serve-mix request, from rusage"},
	{"peak_rss_mb", "MB", "lower", "maximum resident set of a memwall process, from rusage"},
	{"within_limit_ratio", "ratio", "higher", "operations answered with verified output within the workload's latency limit, over those attempted"},
}

// PerLayer are the metrics of a traced run (memwallbench/layers), each
// with the end-to-end metric and workload it should move.
var PerLayer = []Metric{
	{"workload.generate_ms", "ms", "lower", "latency_p50_ms/cpu_s on fig3-grid and traffic-sweep; serve.cold_p50_ms"},
	{"workload.alloc_mb", "MB", "lower", "peak_rss_mb on all three workloads"},
	{"corpus.refs_ms", "ms", "lower", "latency_p50_ms on traffic-sweep"},
	{"corpus.future_ms", "ms", "lower", "latency_p50_ms on traffic-sweep"},
	{"cache.ns_per_ref", "ns", "lower", "latency_p50_ms on traffic-sweep"},
	{"cache.refs", "count", "lower", "exact; latency_p50_ms on traffic-sweep"},
	{"mtc.ns_per_ref", "ns", "lower", "latency_p50_ms on traffic-sweep"},
	{"mtc.refs", "count", "lower", "exact; latency_p50_ms on traffic-sweep"},
	{"core.perfect_ms", "ms", "lower", "latency_p50_ms on fig3-grid; serve.cold_p50_ms"},
	{"core.infinite_bw_ms", "ms", "lower", "latency_p50_ms on fig3-grid; serve.cold_p50_ms"},
	{"core.full_ms", "ms", "lower", "latency_p50_ms on fig3-grid; serve.cold_p50_ms"},
	{"core.perfect_runs_per_cell", "ratio", "lower", "0.5 on the CLI grid path, counted in the tracer's copy of Figure3Pool's sharing; cpu_s on fig3-grid"},
	{"cpu.inorder_ns_per_inst", "ns", "lower", "latency_p50_ms on fig3-grid (machines A-C); serve.cold_p50_ms"},
	{"cpu.ooo_ns_per_inst", "ns", "lower", "latency_p50_ms on fig3-grid (machines D-F); serve.cold_p50_ms"},
	{"cpu.sim_insts", "count", "lower", "exact; a simulator speed-up must not move it"},
	{"cpu.sim_cycles", "count", "lower", "exact; a simulator speed-up must not move it"},
	{"mem.l1_misses", "count", "lower", "exact; must not move"},
	{"mem.l2_misses", "count", "lower", "exact; must not move"},
	{"mem.mem_traffic_bytes", "bytes", "lower", "exact; must not move"},
	{"runner.queue_wait_ms", "ms", "lower", "latency_p50_ms on fig3-grid (from memwall's own Figure3Pool passes)"},
	{"runner.idle_tail_ms", "ms", "lower", "latency_p50_ms on fig3-grid (workers x elapsed - summed cell busy, from Figure3Pool passes)"},
	{"checkpoint.record_ms_p50", "ms", "lower", "serve.cold_p50_ms and latency_p50_ms on serve-mix"},
	{"checkpoint.record_ms_max", "ms", "lower", "the serve-mix latency tail (printed, not bounded) and latency_p50_ms on serve-mix"},
	{"checkpoint.lookup_us", "us", "lower", "serve.memo_p50_ms"},
	{"checkpoint.records", "count", "higher", "exact; cells per ledger in the traced record pass"},
	{"serve.cells_computed", "count", "lower", "cpu_s on serve-mix"},
	{"serve.cells_cached", "count", "higher", "cpu_s on serve-mix"},
	{"serve.coalesced", "count", "higher", "cpu_s on serve-mix"},
	{"serve.rejected", "count", "lower", "within_limit_ratio on serve-mix"},
	{"serve.sims_per_cell_requested", "ratio", "lower", "cpu_s on serve-mix (simulations run over cells requested)"},
	{"serve.cell_busy_ms", "ms", "lower", "serve.cold_p50_ms (summed cell busy time over computed cells)"},
	{"serve.cold_p50_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"serve.memo_p50_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"serve.coalesced_p50_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"loadgen.late_p95_ms", "ms", "lower", "must stay near 0 for serve-mix latency to describe the server"},
	{"trace.overhead_ratio", "ratio", "lower", "wall time of the traced passes (the tracer's copy) over the untraced ones (memwall's Figure3Pool)"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks a metric's name, unit and direction against the
// BENCHMARK.json limits.
func (m Metric) Validate() error {
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("metric name %q: want a letter or digit then up to 63 letters, digits, _ . -", m.Name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 letters, digits, _ / %% . -", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better %q: want lower or higher", m.Name, m.Better)
	}
	return nil
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a benchmark run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Tally counts the operations a run attempted and the ones that failed:
// an error, a rejection or an output that differs from its reference.
type Tally struct {
	Attempted, Failed int
	// First is the first failure, for the run's diagnostics.
	First error
}

// Check records one operation and reports whether it succeeded.
func (t *Tally) Check(err error) bool {
	t.Attempted++
	if err == nil {
		return true
	}
	t.Failed++
	if t.First == nil {
		t.First = err
	}
	return false
}

// NewResult builds a run's result line from measured values. It fails
// unless values holds exactly the metrics of set, each finite.
func NewResult(set []Metric, values map[string]float64, t Tally) (Result, error) {
	r := Result{Correct: t.Failed == 0 && t.Attempted > 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: map[string]Value{}}
	for _, m := range set {
		v, ok := values[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		r.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	if len(values) != len(set) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("metrics outside the registry: %v", extra)
	}
	return r, nil
}

// Line renders the result as its one-line JSON form.
func (r Result) Line() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}
