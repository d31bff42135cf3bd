package mtc

import (
	"fmt"
	"testing"

	"memwall/internal/stats"
	"memwall/internal/trace"
	"memwall/internal/units"
)

// modelStats are the replay results that do not depend on how ties
// between blocks with no future use are broken. FlushWriteBacks does
// (a dirty never-reused block is written back either at its eviction or
// at the final flush), so it is left out.
type modelStats struct {
	Hits, Misses, Bypasses, Fetches int64
	WriteBackBytes, TrafficBytes    units.Bytes
}

func (s Stats) model() modelStats {
	return modelStats{s.Hits, s.Misses, s.Bypasses, s.Fetches, s.WriteBackBytes, s.TrafficBytes()}
}

// linearMIN is a reference MTC with no heap and no future table: the
// residents live in a map, each next use comes from a backward scan of
// the trace, and the victim is found by scanning every resident. Ties
// between never-reused blocks go to whichever the map yields first.
func linearMIN(cfg Config, refs []trace.Ref) modelStats {
	const noUse = 1 << 62
	bs := uint64(cfg.BlockSize)
	next := make([]int, len(refs))
	last := map[uint64]int{}
	for t := len(refs) - 1; t >= 0; t-- {
		b := refs[t].Addr / bs
		next[t] = noUse
		if u, ok := last[b]; ok {
			next[t] = u
		}
		last[b] = t
	}
	type line struct {
		next  int
		dirty bool
	}
	var st Stats
	blockBytes := units.Bytes(cfg.BlockSize)
	resident := map[uint64]*line{}
	capacity := cfg.Size / cfg.BlockSize
	for t, r := range refs {
		b := r.Addr / bs
		w := r.Kind == trace.Write
		if l, ok := resident[b]; ok {
			st.Hits++
			l.next = next[t]
			l.dirty = l.dirty || w
			continue
		}
		st.Misses++
		if len(resident) >= capacity {
			var vb uint64
			vn := -1
			for rb, l := range resident {
				if l.next > vn {
					vb, vn = rb, l.next
				}
			}
			if !cfg.NoBypass && !w && next[t] >= vn {
				st.Bypasses++
				st.BypassBytes += trace.WordSize
				continue
			}
			if resident[vb].dirty {
				st.WriteBackBytes += blockBytes
			}
			delete(resident, vb)
		}
		if !w || cfg.Alloc == WriteAllocate {
			st.Fetches++
			st.FetchBytes += blockBytes
		}
		resident[b] = &line{next: next[t], dirty: w}
	}
	for _, l := range resident {
		if l.dirty {
			st.WriteBackBytes += blockBytes
		}
	}
	return st.model()
}

// randomTrace mixes reads and writes over a footprint of words words,
// with a hot subset so that both hits and capacity evictions occur.
func randomTrace(seed uint64, n, words int) []trace.Ref {
	rng := stats.NewRNG(seed)
	refs := make([]trace.Ref, n)
	for i := range refs {
		k := trace.Read
		if rng.Intn(3) == 0 {
			k = trace.Write
		}
		w := rng.Intn(words)
		if rng.Intn(2) == 0 {
			w = rng.Intn(words/8 + 1)
		}
		refs[i] = trace.Ref{Kind: k, Addr: uint64(w) * trace.WordSize}
	}
	return refs
}

// TestSimulateRefsMatchesLinearModel replays random traces through the
// heap-based MTC and the linear-scan model over every combination of
// block size, allocation policy, bypassing and clean-victim preference.
func TestSimulateRefsMatchesLinearModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		refs := randomTrace(seed, 3000, 96+int(seed)*64)
		for _, bs := range []int{4, 32} {
			fut, err := FutureOfRefs(refs, bs)
			if err != nil {
				t.Fatal(err)
			}
			for _, blocks := range []int{1, 3, 16, 61} {
				for _, alloc := range []AllocPolicy{WriteAllocate, WriteValidate} {
					if alloc == WriteValidate && bs != trace.WordSize {
						continue
					}
					for _, noBypass := range []bool{false, true} {
						for _, clean := range []bool{false, true} {
							cfg := Config{Size: blocks * bs, BlockSize: bs, Alloc: alloc, NoBypass: noBypass, PreferCleanVictims: clean}
							name := fmt.Sprintf("seed%d/%s/clean=%v", seed, cfg, clean)
							st, err := SimulateRefs(cfg, fut, refs)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got, want := st.model(), linearMIN(cfg, refs); got != want {
								t.Errorf("%s:\n heap   %+v\n linear %+v", name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestRunRefsAllocationFree pins the replay loop at zero allocations:
// the heap and the entry table are sized by NewWithFuture, so a replay
// on a built MTC allocates nothing, however many blocks it evicts.
func TestRunRefsAllocationFree(t *testing.T) {
	refs := randomTrace(9, 20000, 4096)
	fut, err := FutureOfRefs(refs, trace.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Size: 1 << 10, BlockSize: 4, Alloc: WriteValidate},
		{Size: 1 << 10, BlockSize: 4, PreferCleanVictims: true, NoBypass: true},
	} {
		m, err := NewWithFuture(cfg, fut)
		if err != nil {
			t.Fatal(err)
		}
		// Every replay ends with a flush, so the MTC starts the next one
		// empty; only the counters accumulate.
		if allocs := testing.AllocsPerRun(5, func() { m.RunRefs(refs) }); allocs != 0 {
			t.Errorf("%s: RunRefs allocated %.0f times per replay, want 0", cfg, allocs)
		}
	}
}
