package cache

import (
	"fmt"
	"math/bits"
	"testing"

	"memwall/internal/stats"
	"memwall/internal/trace"
	"memwall/internal/units"
)

// refCache is a linear-scan reference model of Cache: every lookup and
// victim choice scans the whole set, LRU and FIFO compare timestamps, and
// the lowest invalid way is found by search rather than by a cursor. The
// differential tests below hold the indexed wide-set path to it.
type refCache struct {
	cfg       Config
	sets      [][]line
	setShift  uint
	setMask   uint64
	blockMask uint64
	subSize   int
	subShift  uint
	subMask   uint64
	now       int64
	rng       *stats.RNG
	stats     Stats
}

func newRefCache(t *testing.T, cfg Config) *refCache {
	t.Helper()
	// Reuse New's validation and derived geometry; only the set storage
	// and the algorithms are the model's own.
	c := mustNew(t, cfg)
	r := &refCache{
		cfg: cfg, sets: make([][]line, len(c.cursor)),
		setShift: c.setShift, setMask: c.setMask, blockMask: c.blockMask,
		subSize: c.subSize, subShift: c.subShift, subMask: c.subMask,
		rng: stats.NewRNG(0xC0FFEE),
	}
	for i := range r.sets {
		r.sets[i] = make([]line, c.ways)
	}
	return r
}

func (c *refCache) access(r trace.Ref) bool {
	c.now++
	c.stats.Accesses++
	isWrite := r.Kind == trace.Write
	if isWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	blk := r.Addr >> c.setShift
	set := c.sets[blk&c.setMask]
	bit := uint64(1) << ((r.Addr & ^c.blockMask) >> c.subShift)
	alloc := bit
	if c.subSize == c.cfg.BlockSize {
		alloc = c.subMask
	}
	fetch := func(l *line, mask uint64) {
		l.valid |= mask
		c.stats.Fetches++
		c.stats.FetchBytes += units.Blocks(bits.OnesCount64(mask)).Bytes(c.subSize)
	}
	for w := range set {
		l := &set[w]
		if l.valid == 0 || l.tag != blk {
			continue
		}
		l.lastUse = c.now
		if l.valid&bit != 0 {
			if isWrite {
				if c.cfg.Write == WriteThrough {
					c.stats.WriteThroughBytes += trace.WordSize
				} else {
					l.dirty |= bit
				}
			}
			return true
		}
		c.stats.Misses++
		if !isWrite {
			c.stats.ReadMisses++
			fetch(l, bit)
			return false
		}
		c.stats.WriteMisses++
		switch {
		case c.cfg.Write == WriteThrough:
			c.stats.WriteThroughBytes += trace.WordSize
			l.valid |= bit
		case c.cfg.Alloc == WriteValidate:
			l.valid |= bit
			l.dirty |= bit
		case c.cfg.Alloc == NoWriteAllocate:
			c.stats.WriteThroughBytes += trace.WordSize
		default:
			fetch(l, bit)
			l.dirty |= bit
		}
		return false
	}
	c.stats.Misses++
	if isWrite {
		c.stats.WriteMisses++
		if c.cfg.Write == WriteThrough {
			c.stats.WriteThroughBytes += trace.WordSize
		}
		if c.cfg.Alloc == NoWriteAllocate {
			if c.cfg.Write == WriteBack {
				c.stats.WriteThroughBytes += trace.WordSize
			}
			return false
		}
	} else {
		c.stats.ReadMisses++
	}
	w := c.victim(set)
	c.evict(&set[w], false)
	l := &set[w]
	*l = line{tag: blk, lastUse: c.now, allocTime: c.now}
	switch {
	case isWrite && c.cfg.Write == WriteBack && c.cfg.Alloc == WriteValidate:
		l.valid, l.dirty = bit, bit
	case isWrite && c.cfg.Write == WriteBack:
		fetch(l, alloc)
		l.dirty = bit
	default:
		fetch(l, alloc)
	}
	return false
}

func (c *refCache) victim(set []line) int {
	for w := range set {
		if set[w].valid == 0 {
			return w
		}
	}
	if c.cfg.Repl == Random {
		return c.rng.Intn(len(set))
	}
	best := 0
	for w := range set {
		if c.cfg.Repl == FIFO && set[w].allocTime < set[best].allocTime ||
			c.cfg.Repl == LRU && set[w].lastUse < set[best].lastUse {
			best = w
		}
	}
	return best
}

func (c *refCache) evict(l *line, flush bool) {
	if l.valid != 0 && l.dirty != 0 {
		c.stats.WriteBacks++
		c.stats.WriteBackBytes += units.Blocks(bits.OnesCount64(l.dirty)).Bytes(c.subSize)
		if flush {
			c.stats.FlushWriteBacks++
		}
	}
	l.valid, l.dirty = 0, 0
}

func (c *refCache) flush() {
	for _, set := range c.sets {
		for w := range set {
			c.evict(&set[w], true)
		}
	}
}

func (c *refCache) contents() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid != 0 {
				n++
			}
		}
	}
	return n
}

// diffTrace is a seeded mix of reads and writes with reuse: most
// references fall in a hot region about the cache's size, the rest in a
// footprint eight times larger, so runs see hits, sub-block misses,
// capacity evictions and, for wide sets, long probe chains.
func diffTrace(seed uint64, n, size int) []trace.Ref {
	rng := stats.NewRNG(seed)
	refs := make([]trace.Ref, n)
	for i := range refs {
		span := size
		if rng.Intn(4) == 0 {
			span = 8 * size
		}
		refs[i].Addr = uint64(rng.Intn(span/trace.WordSize)) * trace.WordSize
		if rng.Intn(3) == 0 {
			refs[i].Kind = trace.Write
		}
	}
	return refs
}

// TestWideSetsMatchLinearScan replays seeded random traces through wide
// caches (fully associative, 16-way and 64-way) under every replacement
// and write configuration, and requires every hit/miss outcome, every
// statistic and the resident-block count to match the linear-scan model —
// including after a Flush, when the same cache is reused for a second
// trace.
func TestWideSetsMatchLinearScan(t *testing.T) {
	const size = 4 << 10
	geoms := []struct {
		name       string
		block, sub int
		assoc      int
	}{
		{"fa-32B", 32, 0, 0},
		{"fa-4B", 4, 0, 0},
		{"16way-32B", 32, 0, 16},
		{"64way-16B", 16, 0, 64},
		{"fa-32B-sub8", 32, 8, 0},
		{"16way-32B-sub4", 32, 4, 16},
	}
	writes := []struct {
		name  string
		write WritePolicy
		alloc AllocPolicy
	}{
		{"wb-wa", WriteBack, WriteAllocate},
		{"wb-wv", WriteBack, WriteValidate},
		{"wt", WriteThrough, WriteAllocate},
		{"wb-nwa", WriteBack, NoWriteAllocate},
		{"wt-nwa", WriteThrough, NoWriteAllocate},
	}
	for _, g := range geoms {
		for _, repl := range []ReplPolicy{LRU, FIFO, Random} {
			for _, wp := range writes {
				cfg := Config{Size: size, BlockSize: g.block, SubBlockSize: g.sub, Assoc: g.assoc,
					Repl: repl, Write: wp.write, Alloc: wp.alloc}
				if cfg.Validate() != nil {
					continue // write-validate needs word sub-blocks
				}
				t.Run(fmt.Sprintf("%s/%v/%s", g.name, repl, wp.name), func(t *testing.T) {
					c := mustNew(t, cfg)
					if !c.wide {
						t.Fatalf("%v: want the wide-set path", cfg)
					}
					ref := newRefCache(t, cfg)
					for round, seed := range []uint64{1, 2} {
						for i, r := range diffTrace(seed, 20000, size) {
							if got, want := c.Access(r), ref.access(r); got != want {
								t.Fatalf("round %d ref %d (%+v): hit=%v, model %v", round, i, r, got, want)
							}
							if c.stats != ref.stats {
								t.Fatalf("round %d ref %d (%+v): stats\n got %+v\nwant %+v", round, i, r, c.stats, ref.stats)
							}
						}
						if got, want := c.Contents(), ref.contents(); got != want {
							t.Fatalf("round %d: %d blocks resident, model %d", round, got, want)
						}
						c.Flush()
						ref.flush()
						if c.stats != ref.stats || c.Contents() != 0 {
							t.Fatalf("round %d flush: stats\n got %+v\nwant %+v, %d resident", round, c.stats, ref.stats, c.Contents())
						}
					}
				})
			}
		}
	}
}

// TestNarrowSetsMatchLinearScan holds the cursor-driven cold fill of
// narrow sets to the same model.
func TestNarrowSetsMatchLinearScan(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, wideWays} {
		for _, repl := range []ReplPolicy{LRU, FIFO, Random} {
			cfg := Config{Size: 4 << 10, BlockSize: 16, Assoc: assoc, Repl: repl}
			t.Run(fmt.Sprintf("%dway/%v", assoc, repl), func(t *testing.T) {
				c := mustNew(t, cfg)
				ref := newRefCache(t, cfg)
				for round, seed := range []uint64{3, 4} {
					for i, r := range diffTrace(seed, 20000, cfg.Size) {
						if got, want := c.Access(r), ref.access(r); got != want || c.stats != ref.stats {
							t.Fatalf("round %d ref %d: hit=%v stats %+v, model hit=%v stats %+v", round, i, got, c.stats, want, ref.stats)
						}
					}
					c.Flush()
					ref.flush()
					if c.stats != ref.stats {
						t.Fatalf("round %d flush: stats %+v, model %+v", round, c.stats, ref.stats)
					}
				}
			})
		}
	}
}

// TestWideAccessAllocs requires the indexed path to run without heap
// allocation once the cache is built.
func TestWideAccessAllocs(t *testing.T) {
	c := mustNew(t, Config{Size: 64 << 10, BlockSize: 32, Assoc: 0})
	refs := diffTrace(5, 1<<12, 64<<10)
	i := 0
	if allocs := testing.AllocsPerRun(10000, func() {
		c.Access(refs[i%len(refs)])
		i++
	}); allocs != 0 {
		t.Errorf("Access on a fully-associative cache: %v allocs/op, want 0", allocs)
	}
}
