// Corpus determinism regression tests: the trace corpus is a pure
// memoization layer, so every emitted table and JSON report must be
// byte-identical with the corpus enabled, disabled, backed by disk, and
// at any worker count. Any divergence means the corpus changed results,
// not just wall time.
package main

import (
	"testing"

	"memwall/internal/corpus"
)

// withCorpus returns an env with a shared corpus installed, as
// runObserved builds it for -corpus.
func withCorpus(opts corpus.Options) *env {
	return &env{corpus: corpus.New(opts)}
}

// TestTable7CorpusOnOffIdentical requires the Table 7 emission with the
// shared corpus to match the regenerate-per-cell path byte for byte.
func TestTable7CorpusOnOffIdentical(t *testing.T) {
	off := capture(t, func() error { return runTable7(&env{}, nil) })
	on := capture(t, func() error { return runTable7(withCorpus(corpus.Options{}), nil) })
	if on != off {
		t.Errorf("table7 output differs corpus-on vs corpus-off:\n on:\n%s\n off:\n%s", on, off)
	}
}

// TestTable9CorpusOnOffIdentical covers the factor table: its MTC
// reference simulation and factor sweep both ride the corpus's shared
// future tables.
func TestTable9CorpusOnOffIdentical(t *testing.T) {
	off := capture(t, func() error { return runTable9(&env{}, nil) })
	on := capture(t, func() error { return runTable9(withCorpus(corpus.Options{}), nil) })
	if on != off {
		t.Errorf("table9 output differs corpus-on vs corpus-off:\n on:\n%s\n off:\n%s", on, off)
	}
}

// TestTable7DiskCorpusIdentical requires the disk tier to be invisible in
// the output: a cold run (writing the cache) and a warm run (reading it
// back) must both match the in-memory emission.
func TestTable7DiskCorpusIdentical(t *testing.T) {
	dir := t.TempDir()
	mem := capture(t, func() error { return runTable7(withCorpus(corpus.Options{}), nil) })
	cold := capture(t, func() error { return runTable7(withCorpus(corpus.Options{Dir: dir}), nil) })
	warm := capture(t, func() error { return runTable7(withCorpus(corpus.Options{Dir: dir}), nil) })
	if cold != mem {
		t.Errorf("table7 output differs with cold disk corpus:\n disk:\n%s\n mem:\n%s", cold, mem)
	}
	if warm != mem {
		t.Errorf("table7 output differs with warm disk corpus:\n disk:\n%s\n mem:\n%s", warm, mem)
	}
}

// TestFig3CorpusParallelIdentical crosses the corpus with the worker
// pool: corpus-off -j 1 is the reference, corpus-on -j 8 the most
// aggressive sharing configuration.
func TestFig3CorpusParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	ref := capture(t, func() error { return runFig3(&env{}, []string{"-suite", "92", "-j", "1"}) })
	shared := capture(t, func() error { return runFig3(withCorpus(corpus.Options{}), []string{"-suite", "92", "-j", "8"}) })
	if shared != ref {
		t.Errorf("fig3 output differs corpus-on -j 8 vs corpus-off -j 1:\n corpus:\n%s\n reference:\n%s", shared, ref)
	}
}

// TestSelfcheckCorpusParallelIdentical runs the invariant battery with
// all checks sharing corpus entries across the -j grid; the report must
// match the corpus-off serial reference.
func TestSelfcheckCorpusParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	args := func(j string) []string { return []string{"-benches", "compress,li,su2cor", "-j", j} }
	ref := capture(t, func() error { return runSelfcheck(&env{}, args("1")) })
	shared := capture(t, func() error { return runSelfcheck(withCorpus(corpus.Options{}), args("8")) })
	if shared != ref {
		t.Errorf("selfcheck output differs corpus-on -j 8 vs corpus-off -j 1:\n corpus:\n%s\n reference:\n%s", shared, ref)
	}
}

// TestExportCorpusOnOffIdentical requires the machine-readable report —
// which exercises Tables 3 and 7-10 through internal/report — to be
// byte-identical with and without a shared corpus.
func TestExportCorpusOnOffIdentical(t *testing.T) {
	off := capture(t, func() error { return runExport(&env{}, []string{"-notiming"}) })
	on := capture(t, func() error { return runExport(withCorpus(corpus.Options{}), []string{"-notiming"}) })
	if on != off {
		t.Errorf("export JSON differs corpus-on vs corpus-off:\n on:\n%s\n off:\n%s", on, off)
	}
}
