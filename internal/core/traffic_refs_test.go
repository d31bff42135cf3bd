package core

import (
	"testing"

	"memwall/internal/cache"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// loadRefs materializes one small workload trace for the equality tests.
func loadRefs(t testing.TB) []trace.Ref {
	t.Helper()
	p, err := workload.Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(p.MemRefs())
}

// TestMeasureRatioRefsMatchesStream pins the corpus fast path to the
// stream path bit-for-bit: the byte-identical-output guarantee of the
// corpus rests on these equalities.
func TestMeasureRatioRefsMatchesStream(t *testing.T) {
	refs := loadRefs(t)
	tr := TraceOfRefs(refs)
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
		cfg := cache.Config{Size: size, BlockSize: 32, Assoc: 1, Repl: cache.LRU}
		want, err := MeasureRatio(cfg, trace.NewSliceStream(refs), int64(len(refs)), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureRatioRefs(cfg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("size %d: refs path %+v != stream path %+v", size, got, want)
		}
	}
}

func TestMeasureInefficiencyRefsMatchesStream(t *testing.T) {
	refs := loadRefs(t)
	tr := TraceOfRefs(refs)
	for _, size := range []int{4 << 10, 64 << 10} {
		cfg := cache.Config{Size: size, BlockSize: 32, Assoc: 1, Repl: cache.LRU}
		want, err := MeasureInefficiency(cfg, trace.NewSliceStream(refs), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureInefficiencyRefs(cfg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("size %d: refs path %+v != stream path %+v", size, got, want)
		}
	}
}

// TestMeasureFactorsMatchesStream pins the memoised Table 9 column to the
// per-row stream path: the reference traffic and every row must match
// MeasureFactor over the same trace, bit for bit.
func TestMeasureFactorsMatchesStream(t *testing.T) {
	refs := loadRefs(t)
	const size = 16 << 10
	// Reference traffic: the canonical write-validate MTC.
	want, err := MeasureInefficiency(cache.Config{Size: size, BlockSize: 32, Assoc: 1, Repl: cache.LRU},
		trace.NewSliceStream(refs), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, rows, err := MeasureFactors(size, TraceOfRefs(refs))
	if err != nil {
		t.Fatal(err)
	}
	if ref != want.MTCTraffic {
		t.Errorf("reference traffic %d, want %d", ref, want.MTCTraffic)
	}
	specs := Factors(size)
	if len(rows) != len(specs) {
		t.Fatalf("%d rows, want %d", len(rows), len(specs))
	}
	for i, row := range rows {
		if row.Spec.Name != specs[i].Name {
			t.Errorf("row %d is %s, want %s", i, row.Spec.Name, specs[i].Name)
		}
		want, err := MeasureFactor(row.Spec, trace.NewSliceStream(refs), ref)
		if err != nil {
			t.Fatal(err)
		}
		if row != want {
			t.Errorf("factor %s: memoised %+v != stream path %+v", row.Spec.Name, row, want)
		}
	}
}
