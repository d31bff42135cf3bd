// Traffic ratios, effective pin bandwidth, and traffic inefficiency
// (paper Sections 4–5, Equations 4–7).
package core

import (
	"fmt"

	"memwall/internal/cache"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/units"
)

// TrafficRatio computes R_i = D_i / D_{i-1} (Equation 4): the traffic
// below a cache divided by the traffic above it. For a first-level cache
// the traffic above is refs × word size.
func TrafficRatio(below, above units.Bytes) float64 {
	return units.Ratio(below, above)
}

// RatioResult is one cache traffic-ratio measurement.
type RatioResult struct {
	Config cache.Config
	Stats  cache.Stats
	// Refs is the number of processor references in the trace.
	Refs int64
	// R is the level-1 traffic ratio.
	R float64
	// FitsDataSet reports that the cache is at least as large as the
	// program's data set — the paper marks this region "<<<" since R
	// trivially approaches 0 there.
	FitsDataSet bool
}

// MeasureRatio runs the trace through a cache of the given configuration
// and computes its traffic ratio. dataSetBytes (if > 0) flags oversized
// caches.
func MeasureRatio(cfg cache.Config, s trace.Stream, refs int64, dataSetBytes int64) (RatioResult, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return RatioResult{}, err
	}
	st := c.Run(s)
	return RatioResult{
		Config:      cfg,
		Stats:       st,
		Refs:        refs,
		R:           TrafficRatio(st.TrafficBytes(), units.Words(refs).Bytes(trace.WordSize)),
		FitsDataSet: fitsDataSet(cfg.Size, dataSetBytes),
	}, nil
}

// RefTrace is a materialized, shareable reference trace: the zero-copy
// view a corpus entry provides. Refs returns the (read-only) reference
// slice; Future returns the shared MIN future-knowledge table for a block
// size. core consumes the interface so the corpus can depend on core-level
// simulators without a cycle the other way.
type RefTrace interface {
	Refs() ([]trace.Ref, error)
	Future(blockSize int) (*mtc.Future, error)
}

// sliceTrace adapts a bare []trace.Ref to RefTrace (used by tests and by
// callers that materialized a trace without a corpus). Future tables are
// rebuilt per call — no sharing.
type sliceTrace []trace.Ref

func (s sliceTrace) Refs() ([]trace.Ref, error) { return s, nil }
func (s sliceTrace) Future(blockSize int) (*mtc.Future, error) {
	return mtc.FutureOfRefs(s, blockSize)
}

// TraceOfRefs wraps a materialized reference slice as a RefTrace.
func TraceOfRefs(refs []trace.Ref) RefTrace { return sliceTrace(refs) }

// MeasureRatioRefs is MeasureRatio over a shared materialized trace: the
// cache replays the slice directly (no per-reference interface dispatch)
// and the reference count comes from the trace itself. Byte-identical to
// MeasureRatio over the same trace.
func MeasureRatioRefs(cfg cache.Config, tr RefTrace, dataSetBytes int64) (RatioResult, error) {
	refs, err := tr.Refs()
	if err != nil {
		return RatioResult{}, err
	}
	c, err := cache.New(cfg)
	if err != nil {
		return RatioResult{}, err
	}
	st := c.RunRefs(refs)
	nrefs := int64(len(refs))
	return RatioResult{
		Config:      cfg,
		Stats:       st,
		Refs:        nrefs,
		R:           TrafficRatio(st.TrafficBytes(), units.Words(nrefs).Bytes(trace.WordSize)),
		FitsDataSet: fitsDataSet(cfg.Size, dataSetBytes),
	}, nil
}

// EffectivePinBandwidth computes E_pin = B_pin / Π R_i (Equation 5): the
// pin bandwidth as seen by the processor after the on-chip cache levels
// filter its traffic.
func EffectivePinBandwidth(pinBW float64, ratios ...float64) float64 {
	prod := 1.0
	for _, r := range ratios {
		prod *= r
	}
	if prod == 0 {
		return 0
	}
	return pinBW / prod
}

// Inefficiency computes G_i = D_cache / D_MTC (Equation 6), the traffic
// inefficiency of a cache relative to a minimal-traffic cache of the same
// size. G >= 1 for a true MTC; values below 1 would indicate the
// comparison cache beat the bound (possible only through accounting
// differences, and reported as-is).
func Inefficiency(cacheTraffic, mtcTraffic units.Bytes) float64 {
	return units.Ratio(cacheTraffic, mtcTraffic)
}

// OptimalEffectivePinBandwidth computes OE_pin = B_pin * Π G_i / Π R_i
// (Equation 7): the upper bound on effective pin bandwidth achievable by
// perfect on-chip memory management.
func OptimalEffectivePinBandwidth(pinBW float64, gs, rs []float64) float64 {
	num := pinBW
	for _, g := range gs {
		num *= g
	}
	den := 1.0
	for _, r := range rs {
		den *= r
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// InefficiencyResult is one traffic-inefficiency measurement.
type InefficiencyResult struct {
	CacheConfig  cache.Config
	MTCConfig    mtc.Config
	CacheTraffic units.Bytes
	MTCTraffic   units.Bytes
	G            float64
	FitsDataSet  bool
}

// MeasureInefficiency computes G for a cache configuration against the
// canonical MTC of the same size (fully associative, word blocks, MIN,
// bypass, write-validate — Section 5.2).
func MeasureInefficiency(cfg cache.Config, s trace.Stream, dataSetBytes int64) (InefficiencyResult, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return InefficiencyResult{}, err
	}
	cst := c.Run(s)
	mcfg := canonicalMTC(cfg.Size)
	mst, err := mtc.Simulate(mcfg, s)
	if err != nil {
		return InefficiencyResult{}, err
	}
	return InefficiencyResult{
		CacheConfig:  cfg,
		MTCConfig:    mcfg,
		CacheTraffic: cst.TrafficBytes(),
		MTCTraffic:   mst.TrafficBytes(),
		G:            Inefficiency(cst.TrafficBytes(), mst.TrafficBytes()),
		FitsDataSet:  dataSetBytes > 0 && int64(cfg.Size) >= dataSetBytes,
	}, nil
}

// MeasureInefficiencyRefs is MeasureInefficiency over a shared
// materialized trace. The canonical MTC replays against the trace's shared
// word-grain future table instead of rebuilding future knowledge per call.
// Byte-identical to MeasureInefficiency over the same trace.
func MeasureInefficiencyRefs(cfg cache.Config, tr RefTrace, dataSetBytes int64) (InefficiencyResult, error) {
	refs, err := tr.Refs()
	if err != nil {
		return InefficiencyResult{}, err
	}
	c, err := cache.New(cfg)
	if err != nil {
		return InefficiencyResult{}, err
	}
	cst := c.RunRefs(refs)
	mcfg := canonicalMTC(cfg.Size)
	fut, err := tr.Future(trace.WordSize)
	if err != nil {
		return InefficiencyResult{}, err
	}
	mst, err := mtc.SimulateRefs(mcfg, fut, refs)
	if err != nil {
		return InefficiencyResult{}, err
	}
	return InefficiencyResult{
		CacheConfig:  cfg,
		MTCConfig:    mcfg,
		CacheTraffic: cst.TrafficBytes(),
		MTCTraffic:   mst.TrafficBytes(),
		G:            Inefficiency(cst.TrafficBytes(), mst.TrafficBytes()),
		FitsDataSet:  dataSetBytes > 0 && int64(cfg.Size) >= dataSetBytes,
	}, nil
}

// FactorSpec is one row of the paper's Table 10: a pair of configurations
// whose traffic-inefficiency difference isolates one factor.
type FactorSpec struct {
	// Name is the factor label from Table 9 ("Associativity", ...).
	Name string
	// Exp1 and Exp2 describe the two simulations; exactly one of the
	// cache/mtc fields is set per experiment.
	Exp1, Exp2 FactorConfig
}

// FactorConfig selects either a conventional-cache simulation or an
// MTC (MIN-replacement) simulation for one side of a factor experiment.
type FactorConfig struct {
	Cache *cache.Config
	MTC   *mtc.Config
	// Label is the Table 10 shorthand, e.g. "LRU, 1a, 32B, WA".
	Label string
}

// traffic runs the configured simulation and returns total traffic bytes.
func (fc FactorConfig) traffic(s trace.Stream) (units.Bytes, error) {
	switch {
	case fc.Cache != nil:
		c, err := cache.New(*fc.Cache)
		if err != nil {
			return 0, err
		}
		return c.Run(s).TrafficBytes(), nil
	case fc.MTC != nil:
		st, err := mtc.Simulate(*fc.MTC, s)
		if err != nil {
			return 0, err
		}
		return st.TrafficBytes(), nil
	default:
		return 0, fmt.Errorf("core: factor config %q selects no simulator", fc.Label)
	}
}

// trafficRefs is traffic over a shared materialized trace, using the
// slice fast paths and the trace's shared future table for MTC runs.
func (fc FactorConfig) trafficRefs(tr RefTrace) (units.Bytes, error) {
	refs, err := tr.Refs()
	if err != nil {
		return 0, err
	}
	switch {
	case fc.Cache != nil:
		c, err := cache.New(*fc.Cache)
		if err != nil {
			return 0, err
		}
		return c.RunRefs(refs).TrafficBytes(), nil
	case fc.MTC != nil:
		fut, err := tr.Future(fc.MTC.BlockSize)
		if err != nil {
			return 0, err
		}
		st, err := mtc.SimulateRefs(*fc.MTC, fut, refs)
		if err != nil {
			return 0, err
		}
		return st.TrafficBytes(), nil
	default:
		return 0, fmt.Errorf("core: factor config %q selects no simulator", fc.Label)
	}
}

// FactorResult reports the inefficiency-gap contribution of one factor:
// the change in G = D_exp / D_MTCref when the factor is toggled.
type FactorResult struct {
	Spec     FactorSpec
	Traffic1 units.Bytes
	Traffic2 units.Bytes
	// DeltaG is G(exp1) − G(exp2) relative to the reference MTC: how
	// much traffic inefficiency the factor accounts for (Table 9).
	DeltaG float64
}

// Factors builds the paper's Table 10 experiment pairs for the given
// cache size (in bytes).
func Factors(size int) []FactorSpec {
	dm32 := &cache.Config{Size: size, BlockSize: 32, Assoc: 1, Repl: cache.LRU}
	fa32 := &cache.Config{Size: size, BlockSize: 32, Assoc: 0, Repl: cache.LRU}
	dm4 := &cache.Config{Size: size, BlockSize: 4, Assoc: 1, Repl: cache.LRU}
	min32 := &mtc.Config{Size: size, BlockSize: 32, Alloc: mtc.WriteAllocate}
	min4 := &mtc.Config{Size: size, BlockSize: 4, Alloc: mtc.WriteAllocate}
	min4wv := &mtc.Config{Size: size, BlockSize: 4, Alloc: mtc.WriteValidate}
	return []FactorSpec{
		{
			Name: "Associativity",
			Exp1: FactorConfig{Cache: dm32, Label: "LRU, 1a, 32B, WA"},
			Exp2: FactorConfig{Cache: fa32, Label: "LRU, fa, 32B, WA"},
		},
		{
			Name: "Replacement",
			Exp1: FactorConfig{Cache: fa32, Label: "LRU, fa, 32B, WA"},
			Exp2: FactorConfig{MTC: min32, Label: "MIN, fa, 32B, WA"},
		},
		{
			Name: "Blocksize (cache)",
			Exp1: FactorConfig{Cache: dm32, Label: "LRU, 1a, 32B, WA"},
			Exp2: FactorConfig{Cache: dm4, Label: "LRU, 1a, 4B, WA"},
		},
		{
			Name: "Blocksize (MTC)",
			Exp1: FactorConfig{MTC: min32, Label: "MIN, fa, 32B, WA"},
			Exp2: FactorConfig{MTC: min4, Label: "MIN, fa, 4B, WA"},
		},
		{
			Name: "Write validate",
			Exp1: FactorConfig{MTC: min4, Label: "MIN, fa, 4B, WA"},
			Exp2: FactorConfig{MTC: min4wv, Label: "MIN, fa, 4B, WV"},
		},
	}
}

// MeasureFactor runs one factor pair over a trace. The reference traffic
// refMTC (the canonical write-validate MTC's traffic) converts the two
// absolute traffic values into the change of G that the factor explains.
func MeasureFactor(spec FactorSpec, s trace.Stream, refMTC units.Bytes) (FactorResult, error) {
	t1, err := spec.Exp1.traffic(s)
	if err != nil {
		return FactorResult{}, fmt.Errorf("core: factor %s exp1: %w", spec.Name, err)
	}
	t2, err := spec.Exp2.traffic(s)
	if err != nil {
		return FactorResult{}, fmt.Errorf("core: factor %s exp2: %w", spec.Name, err)
	}
	return factorResult(spec, t1, t2, refMTC), nil
}

// factorKey identifies one simulation of a factor experiment; exactly one
// of the two configurations is non-zero.
type factorKey struct {
	cache cache.Config
	mtc   mtc.Config
}

func (fc FactorConfig) key() factorKey {
	var k factorKey
	if fc.Cache != nil {
		k.cache = *fc.Cache
	}
	if fc.MTC != nil {
		k.mtc = *fc.MTC
	}
	return k
}

// MeasureFactors runs one benchmark's column of Table 9 over a shared
// materialized trace: the reference traffic (the canonical word-block
// write-validate MTC) and one FactorResult per row of Factors(size), in
// order. The rows share configurations — dm32, fa32, min32 and min4 each
// appear twice, and the reference is the min4wv run — so traffic is
// memoised by configuration and each of the six distinct simulations runs
// once. Each row is byte-identical to MeasureFactor over the same trace.
func MeasureFactors(size int, tr RefTrace) (units.Bytes, []FactorResult, error) {
	memo := map[factorKey]units.Bytes{}
	traffic := func(fc FactorConfig) (units.Bytes, error) {
		k := fc.key()
		if t, ok := memo[k]; ok {
			return t, nil
		}
		t, err := fc.trafficRefs(tr)
		if err != nil {
			return 0, err
		}
		memo[k] = t
		return t, nil
	}
	refMTC := canonicalMTC(size)
	ref, err := traffic(FactorConfig{MTC: &refMTC})
	if err != nil {
		return 0, nil, fmt.Errorf("core: factor reference MTC: %w", err)
	}
	specs := Factors(size)
	rows := make([]FactorResult, len(specs))
	for i, spec := range specs {
		t1, err := traffic(spec.Exp1)
		if err != nil {
			return 0, nil, fmt.Errorf("core: factor %s exp1: %w", spec.Name, err)
		}
		t2, err := traffic(spec.Exp2)
		if err != nil {
			return 0, nil, fmt.Errorf("core: factor %s exp2: %w", spec.Name, err)
		}
		rows[i] = factorResult(spec, t1, t2, ref)
	}
	return ref, rows, nil
}

// factorResult converts a pair's two traffic values into the change of G
// relative to the reference MTC traffic refMTC.
func factorResult(spec FactorSpec, t1, t2, refMTC units.Bytes) FactorResult {
	r := FactorResult{Spec: spec, Traffic1: t1, Traffic2: t2}
	if refMTC > 0 {
		r.DeltaG = float64(t1-t2) / float64(refMTC)
	}
	return r
}
