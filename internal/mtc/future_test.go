package mtc

import (
	"testing"
	"testing/quick"

	"memwall/internal/stats"
	"memwall/internal/trace"
)

// refsFromWords builds a read trace over word indices.
func refsFromWords(words ...uint64) []trace.Ref {
	refs := make([]trace.Ref, len(words))
	for i, w := range words {
		refs[i] = trace.Ref{Kind: trace.Read, Addr: w * trace.WordSize}
	}
	return refs
}

func TestFutureNextUse(t *testing.T) {
	// Trace of word addresses: A B A C B A (blocks at 4B grain).
	refs := refsFromWords(0, 1, 0, 2, 1, 0)
	f, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 || f.Blocks() != 3 || f.BlockSize() != 4 {
		t.Fatalf("Len=%d Blocks=%d BlockSize=%d", f.Len(), f.Blocks(), f.BlockSize())
	}
	want := []int32{2, 4, 5, never, never, never}
	for i, w := range want {
		if got := f.nextUse(i); got != w {
			t.Errorf("nextUse(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestFutureBlockGranularity(t *testing.T) {
	// At 8B blocks, words 0 and 1 share a block; words 2 and 3 share one.
	refs := refsFromWords(0, 1, 2, 3, 0)
	f, err := FutureOfRefs(refs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 2 {
		t.Fatalf("Blocks = %d, want 2", f.Blocks())
	}
	want := []int32{1, 4, 3, never, never}
	for i, w := range want {
		if got := f.nextUse(i); got != w {
			t.Errorf("nextUse(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestFutureRejectsBadBlockSize(t *testing.T) {
	for _, bs := range []int{0, 1, 2, 3, 6, 12} {
		if _, err := FutureOfRefs(nil, bs); err == nil {
			t.Errorf("FutureOfRefs(block size %d) succeeded, want error", bs)
		}
	}
}

// TestFutureStreamMatchesRefs checks the streaming and materialized
// constructors agree, and that NewFuture resets the stream.
func TestFutureStreamMatchesRefs(t *testing.T) {
	rng := stats.NewRNG(7)
	var refs []trace.Ref
	for i := 0; i < 4096; i++ {
		refs = append(refs, trace.Ref{Kind: trace.Read, Addr: uint64(rng.Intn(512)) * trace.WordSize})
	}
	s := trace.NewSliceStream(refs)
	fs, err := NewFuture(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); !ok {
		t.Fatal("NewFuture did not reset the stream")
	}
	fr, err := FutureOfRefs(refs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != fr.Len() || fs.Blocks() != fr.Blocks() {
		t.Fatalf("stream (%d,%d) vs refs (%d,%d)", fs.Len(), fs.Blocks(), fr.Len(), fr.Blocks())
	}
	for i := range refs {
		if fs.blockOf[i] != fr.blockOf[i] || fs.next[i] != fr.next[i] {
			t.Fatalf("position %d: stream (%d,%d) vs refs (%d,%d)",
				i, fs.blockOf[i], fs.next[i], fr.blockOf[i], fr.next[i])
		}
	}
}

// TestNextUseMatchesScan property-checks the backward pass against a
// quadratic forward scan.
func TestNextUseMatchesScan(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		refs := make([]trace.Ref, int(n)+1)
		for i := range refs {
			refs[i] = trace.Ref{Kind: trace.Read, Addr: uint64(rng.Intn(64)) * trace.WordSize}
		}
		fut, err := FutureOfRefs(refs, 4)
		if err != nil {
			return false
		}
		for t0 := range refs {
			want := int32(never)
			for u := t0 + 1; u < len(refs); u++ {
				if refs[u].Addr>>fut.shift == refs[t0].Addr>>fut.shift {
					want = int32(u)
					break
				}
			}
			if fut.nextUse(t0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSharedFutureAcrossConfigs verifies one table drives many configs and
// that the shared-table path agrees exactly with the self-contained path.
func TestSharedFutureAcrossConfigs(t *testing.T) {
	rng := stats.NewRNG(11)
	var refs []trace.Ref
	for i := 0; i < 8192; i++ {
		kind := trace.Read
		if rng.Intn(4) == 0 {
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{Kind: kind, Addr: uint64(rng.Intn(2048)) * trace.WordSize})
	}
	fut, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{128, 1024, 4096} {
		for _, alloc := range []AllocPolicy{WriteAllocate, WriteValidate} {
			cfg := Config{Size: size, BlockSize: 4, Alloc: alloc}
			shared, err := SimulateRefs(cfg, fut, refs)
			if err != nil {
				t.Fatal(err)
			}
			solo, err := Simulate(cfg, trace.NewSliceStream(refs))
			if err != nil {
				t.Fatal(err)
			}
			if shared != solo {
				t.Errorf("%v: shared %+v != solo %+v", cfg, shared, solo)
			}
		}
	}
}

func TestNewWithFutureBlockSizeMismatch(t *testing.T) {
	fut, err := FutureOfRefs(refsFromWords(0, 1, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithFuture(Config{Size: 1024, BlockSize: 32}, fut); err == nil {
		t.Error("mismatched block size accepted")
	}
	if _, err := NewWithFuture(Config{Size: 1024, BlockSize: 4}, nil); err == nil {
		t.Error("nil future accepted")
	}
}

func TestRunRefsTooLongPanics(t *testing.T) {
	fut, err := FutureOfRefs(refsFromWords(0, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithFuture(Config{Size: 1024, BlockSize: 4}, fut)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("replaying a longer trace than ingested did not panic")
		}
	}()
	m.RunRefs(refsFromWords(0, 1, 2))
}
