// Package mtc implements the paper's minimal-traffic cache (Section 5.2):
// a fully-associative cache managed with Belady's MIN replacement policy,
// with optional cache bypassing and a write-validate allocation policy.
//
// The MTC approximates "perfectly-managed" on-chip memory and provides the
// denominator of the traffic-inefficiency metric G = D_cache / D_MTC. Per
// the paper, the configuration that bounds achievable traffic has:
//
//   - full associativity,
//   - transfer size equal to the request size (one 4-byte word),
//   - MIN (furthest-future-use) replacement, and
//   - bypassing for sufficiently low-priority fills.
//
// The paper also simulates MIN-replacement caches with larger blocks and
// with write-allocate (Figure 4's two MTC curves; Table 10 experiments
// II, IV, V), so block size and allocation policy are configurable here.
//
// Like the paper, this package implements plain MIN rather than the
// write-back-aware Horwitz et al. optimal policy; the resulting traffic is
// therefore an aggressive bound rather than the exact minimum.
//
// The simulation is two-pass in the style of Sugumar & Abraham: the first
// pass interns block addresses and records each position's next-use time
// in a dense Future table (see future.go); the second pass replays the
// trace maintaining residents in an indexed max-heap keyed on next-use
// time, so the furthest-referenced block (and bypass decisions) are
// available in O(log n). Because the Future is immutable, one table backs
// every MTC configuration with the same block size — the multi-size grids
// of Figure 4 and Tables 8-9 build it once per trace instead of once per
// cell.
package mtc

import (
	"fmt"
	"math"

	"memwall/internal/trace"
	"memwall/internal/units"
)

// never is the next-use time of a block with no future reference. Trace
// positions stay below it: NewFuture and FutureOfRefs reject longer traces.
const never = math.MaxInt32

// AllocPolicy selects store-miss behaviour.
type AllocPolicy uint8

const (
	// WriteAllocate fetches the block on a store miss before dirtying it.
	WriteAllocate AllocPolicy = iota
	// WriteValidate allocates on a store miss by overwriting with the
	// store data — no fetch traffic. Requires word-sized blocks, since
	// both the MTC's "transfer and address blocks are one word".
	WriteValidate
)

// String returns "write-allocate" or "write-validate".
func (p AllocPolicy) String() string {
	if p == WriteValidate {
		return "write-validate"
	}
	return "write-allocate"
}

// Config describes an MTC organisation.
type Config struct {
	// Size is the capacity in bytes (a positive multiple of BlockSize).
	Size int
	// BlockSize is the transfer/allocation grain in bytes. The canonical
	// MTC uses trace.WordSize (4). Must be a power of two >= 4.
	BlockSize int
	// Alloc selects write-allocate or write-validate.
	Alloc AllocPolicy
	// NoBypass disables cache bypassing (bypassing is on by default, as
	// in the paper's MTC definition).
	NoBypass bool
	// PreferCleanVictims breaks next-use ties in favour of evicting
	// clean blocks, avoiding their write-backs — a cheap approximation
	// of the write-conscious optimal policy of Horwitz et al. that the
	// paper chose not to implement, believing "the disparity between the
	// two is small". The ablation benchmarks quantify that belief.
	PreferCleanVictims bool
}

// String renders the configuration, e.g. "64KB MIN/4B write-validate".
func (c Config) String() string {
	bp := ""
	if c.NoBypass {
		bp = " no-bypass"
	}
	return fmt.Sprintf("%s MIN/%dB %s%s", sizeLabel(c.Size), c.BlockSize, c.Alloc, bp)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Validate reports whether the configuration is simulable.
func (c Config) Validate() error {
	if c.BlockSize < trace.WordSize || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("mtc: block size %d must be a power of two >= %d", c.BlockSize, trace.WordSize)
	}
	if c.Size <= 0 || c.Size%c.BlockSize != 0 {
		return fmt.Errorf("mtc: size %d must be a positive multiple of block size %d", c.Size, c.BlockSize)
	}
	if c.Alloc == WriteValidate && c.BlockSize != trace.WordSize {
		return fmt.Errorf("mtc: write-validate requires %d-byte blocks, got %d", trace.WordSize, c.BlockSize)
	}
	return nil
}

// Stats accumulates MTC access and traffic counts.
type Stats struct {
	Accesses   int64
	Reads      int64
	Writes     int64
	Hits       int64
	Misses     int64
	Bypasses   int64 // misses served without allocation
	Fetches    int64 // block fills from below
	FetchBytes units.Bytes
	// BypassBytes is word traffic for bypassed reads (data still crosses
	// the boundary) and bypassed writes (stored word goes below).
	BypassBytes units.Bytes
	// WriteBackBytes counts dirty evictions plus the end-of-run flush.
	WriteBackBytes  units.Bytes
	FlushWriteBacks int64
}

// TrafficBytes returns total traffic below the MTC.
func (s Stats) TrafficBytes() units.Bytes {
	return s.FetchBytes + s.BypassBytes + s.WriteBackBytes
}

// Per-block residency state is one packed uint32 word per interned block
// ID: pos<<1 | dirty, where pos is the block's max-heap position plus one.
// The zero word (obtained for free from make's memclr) means "not
// resident". Packing halves the table against the padded struct it
// replaced — the table is touched once per reference, and traces intern
// millions of blocks — and mirrors the packed line-frame words of
// internal/mem. Heap positions are bounded by the interned-block count,
// which fits int32, so pos<<1 cannot overflow the word.
const entryDirty = 1

func entryPos(e uint32) int { return int(e >> 1) }

func packEntry(pos int, dirty uint32) uint32 { return uint32(pos)<<1 | dirty }

// heapElem is one resident block in the eviction heap. The next-use key
// lives inline so heap compares and moves touch one contiguous array of
// 8-byte elements — no pointer chase, no write barriers, no per-miss
// allocation.
type heapElem struct {
	nextUse int32
	id      int32
}

// MTC is the minimal-traffic cache simulator. Because MIN requires future
// knowledge, an MTC is built for one specific trace via Simulate or New +
// Run; it cannot be driven incrementally by unseen references.
type MTC struct {
	cfg      Config
	capacity int

	// fut is the trace's future-knowledge table, shared read-only with any
	// other MTC built over the same trace at the same block size.
	fut *Future

	// entries is indexed by interned block ID; a block is resident iff its
	// packed position field is non-zero.
	entries []uint32
	heap    []heapElem // max-heap on nextUse

	stats Stats
}

// New builds an MTC for cfg over the given trace stream. The stream is
// consumed once to build the future-knowledge table and then reset. When
// several configurations share one trace, build the table once with
// NewFuture (or FutureOfRefs) and use NewWithFuture instead.
func New(cfg Config, s trace.Stream) (*MTC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := NewFuture(s, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	return NewWithFuture(cfg, f)
}

// NewWithFuture builds an MTC for cfg over a precomputed future table. The
// table must have been built at cfg.BlockSize over exactly the trace that
// will later be replayed through Run/RunRefs. The table is only read, so
// the same Future may back any number of MTCs, concurrently.
//
// Construction runs once per simulated configuration, not once per
// reference, so it is excluded from SimulateRefs' hot set: its
// allocations and validation errors are setup cost, amortized over the
// whole replay.
//
//memwall:cold
func NewWithFuture(cfg Config, f *Future) (*MTC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("mtc: nil future table")
	}
	if f.blockSize != cfg.BlockSize {
		return nil, fmt.Errorf("mtc: future table built for %dB blocks, config wants %dB", f.blockSize, cfg.BlockSize)
	}
	capacity := cfg.Size / max(1, cfg.BlockSize) // Validate rejected nonpositive block sizes above
	heapCap := capacity
	if f.numBlocks < heapCap {
		heapCap = f.numBlocks
	}
	return &MTC{
		cfg:      cfg,
		capacity: capacity,
		fut:      f,
		entries:  make([]uint32, f.numBlocks),
		heap:     make([]heapElem, 0, heapCap),
	}, nil
}

// Stats returns a copy of the accumulated statistics.
func (m *MTC) Stats() Stats { return m.stats }

// Config returns the MTC configuration.
func (m *MTC) Config() Config { return m.cfg }

// Future returns the (shared, read-only) future table the MTC replays
// against.
func (m *MTC) Future() *Future { return m.fut }

// Resident returns the number of currently resident blocks.
func (m *MTC) Resident() int { return len(m.heap) }

// --- indexed max-heap on nextUse ---
//
// The sifts move a hole rather than swapping: the sifted element is held
// aside, each level moves one element and updates its entry, and the
// element lands once at the end. They make the same comparisons as a
// swapping sift and leave the same arrangement, so tie order — and with
// it FlushWriteBacks and PreferCleanVictims — does not depend on the
// technique.

// heapLess reports whether a ranks above b: a further next use, or on a
// tie (only possible at never) a clean block over a dirty one when
// PreferCleanVictims is set. Dirty bits are read from entries, which the
// sifts never change.
func (m *MTC) heapLess(a, b heapElem) bool {
	if a.nextUse != b.nextUse {
		return a.nextUse > b.nextUse
	}
	if m.cfg.PreferCleanVictims {
		ad, bd := m.entries[a.id]&entryDirty != 0, m.entries[b.id]&entryDirty != 0
		if ad != bd {
			// Prefer evicting the clean block on a tie: rank it "larger".
			return !ad && bd
		}
	}
	return false
}

// place stores x at heap position i and records the position in its entry.
func (m *MTC) place(i int, x heapElem) {
	m.heap[i] = x
	m.entries[x.id] = packEntry(i+1, m.entries[x.id]&entryDirty)
}

// heapUp sifts the element at i toward the root.
func (m *MTC) heapUp(i int) {
	x := m.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !m.heapLess(x, m.heap[parent]) {
			break
		}
		m.place(i, m.heap[parent])
		i = parent
	}
	m.place(i, x)
}

func (m *MTC) heapDown(i int) {
	n := len(m.heap)
	x := m.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		c, cv := i, x
		if l < n && m.heapLess(m.heap[l], cv) {
			c, cv = l, m.heap[l]
		}
		if r < n && m.heapLess(m.heap[r], cv) {
			c, cv = r, m.heap[r]
		}
		if c == i {
			break
		}
		m.place(i, cv)
		i = c
	}
	m.place(i, x)
}

func (m *MTC) heapPush(id int32, nextUse int32) {
	// Extend within the preallocated backing array instead of append:
	// NewWithFuture sizes cap(m.heap) to min(capacity, numBlocks), and
	// residency never exceeds either bound, so this is allocation-free on
	// the replay hot path.
	i := len(m.heap)
	m.heap = m.heap[: i+1 : cap(m.heap)]
	m.heap[i] = heapElem{nextUse: nextUse, id: id}
	m.heapUp(i)
}

func (m *MTC) heapRemove(i int) {
	last := len(m.heap) - 1
	x := m.heap[last]
	m.heap = m.heap[:last]
	if i < last {
		m.place(i, x)
		m.heapDown(i)
		m.heapUp(i)
	}
}

func (m *MTC) evict(id int32, flush bool) {
	e := m.entries[id]
	if e&entryDirty != 0 {
		m.stats.WriteBackBytes += units.Bytes(m.cfg.BlockSize)
		if flush {
			m.stats.FlushWriteBacks++
		}
	}
	m.heapRemove(entryPos(e) - 1)
	m.entries[id] = 0
}

func (m *MTC) allocate(id int32, nextUse int32, dirty bool, fetch bool) {
	if dirty {
		m.entries[id] = entryDirty // position filled in by heapPush
	}
	m.heapPush(id, nextUse)
	if fetch {
		m.stats.Fetches++
		m.stats.FetchBytes += units.Bytes(m.cfg.BlockSize)
	}
}

// access simulates the reference at position t. The block identity and
// next-use time are both array loads from the shared future table — no map
// lookups on the replay path.
func (m *MTC) access(isWrite bool, t int) {
	m.stats.Accesses++
	if isWrite {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	id := m.fut.blockOf[t]
	nextUse := m.fut.nextUse(t)

	if e := m.entries[id]; e>>1 != 0 {
		m.stats.Hits++
		i := entryPos(e) - 1
		m.heap[i].nextUse = nextUse
		if isWrite {
			m.entries[id] = e | entryDirty
		}
		// The block's key was t, this reference; its next use lies
		// later, so a hit only ever raises the key and the block can
		// only move toward the root. Its children keep keys below t,
		// so no sift down is needed.
		m.heapUp(i)
		return
	}

	m.stats.Misses++

	// Decide whether to allocate. With space free we always allocate.
	// Only loads may bypass ("sufficiently low-priority loads can bypass
	// the cache", Section 5.2); stores always allocate, which is what
	// makes the write-validate-vs-write-allocate factor visible.
	if len(m.heap) >= m.capacity {
		top := m.heap[0]
		if !m.cfg.NoBypass && !isWrite && nextUse >= top.nextUse {
			// The incoming block is (re)used no sooner than everything
			// resident: bypass. The requested word still crosses the
			// boundary to the processor.
			m.stats.Bypasses++
			m.stats.BypassBytes += trace.WordSize
			return
		}
		m.evict(top.id, false)
	}

	switch {
	case !isWrite:
		m.allocate(id, nextUse, false, true)
	case m.cfg.Alloc == WriteValidate:
		// Allocate by overwriting with the store data: no fetch.
		m.allocate(id, nextUse, true, false)
	default: // write-allocate
		m.allocate(id, nextUse, true, true)
	}
}

// checkLen panics when the replayed trace is longer than the one the future
// table was built over — the MIN contract is replay-what-you-ingested, and
// a silent index error here would be much harder to diagnose. This is the
// invariant backstop for callers that bypass SimulateRefs' validation.
func (m *MTC) checkLen(t int) {
	if t >= m.fut.Len() {
		panicLenMismatch(t, m.fut.Len())
	}
}

// panicLenMismatch formats the checkLen invariant panic. It is a
// separate //memwall:cold function so the fmt call stays out of the
// replay loop's hot set (and out of its inlining budget).
//
//memwall:cold
func panicLenMismatch(t, n int) {
	panic(fmt.Sprintf("mtc: invariant violated: replaying reference %d of a trace but the future table was built over only %d references; Run must replay the exact trace passed to New/NewFuture", t, n))
}

// Flush writes back all dirty resident blocks, as at program completion.
func (m *MTC) Flush() {
	for len(m.heap) > 0 {
		m.evict(m.heap[0].id, true)
	}
}

// Run replays the full trace (the same one passed to New), flushes, resets
// the stream, and returns the statistics. Run may be called once.
func (m *MTC) Run(s trace.Stream) Stats {
	t := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		m.checkLen(t)
		m.access(r.Kind == trace.Write, t)
		t++
	}
	m.Flush()
	s.Reset()
	return m.stats
}

// RunRefs replays a materialized trace (the same one the future table was
// built over), flushes, and returns the statistics. It is the slice fast
// path of Run: no stream interface dispatch per reference.
func (m *MTC) RunRefs(refs []trace.Ref) Stats {
	if len(refs) > 0 {
		m.checkLen(len(refs) - 1)
	}
	for t := range refs {
		m.access(refs[t].Kind == trace.Write, t)
	}
	m.Flush()
	return m.stats
}

// Simulate is the one-shot convenience API: build an MTC for cfg over s,
// run the trace, and return the statistics.
func Simulate(cfg Config, s trace.Stream) (Stats, error) {
	m, err := New(cfg, s)
	if err != nil {
		return Stats{}, err
	}
	return m.Run(s), nil
}

// SimulateRefs runs cfg over a materialized trace using a shared future
// table (built by FutureOfRefs/NewFuture at cfg.BlockSize over exactly
// refs). This is the grid-sweep fast path: the table is built once and
// every configuration replays against it.
//
//memwall:hot
func SimulateRefs(cfg Config, f *Future, refs []trace.Ref) (Stats, error) {
	// Validate the trace/table pairing up front: a mismatched pairing is a
	// caller input error (e.g. a table built over a different trace), and
	// belongs in the error return, not in checkLen's invariant panic deep
	// inside the replay loop.
	if f != nil && len(refs) > f.Len() {
		return Stats{}, errFutureMismatch(len(refs), f.Len())
	}
	m, err := NewWithFuture(cfg, f)
	if err != nil {
		return Stats{}, err
	}
	return m.RunRefs(refs), nil
}

// errFutureMismatch formats SimulateRefs' input-validation error on a
// //memwall:cold path, keeping fmt out of the hot set.
//
//memwall:cold
func errFutureMismatch(refs, futLen int) error {
	return fmt.Errorf("mtc: trace/future mismatch: replaying %d references against a future table built over %d; build the table with FutureOfRefs over exactly this trace", refs, futLen)
}
