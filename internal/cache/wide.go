// Wide-set bookkeeping: O(1) hit lookup and victim choice for sets with
// more than wideWays ways. The fully-associative caches of Table 9 (2048
// ways at 64 KB/32 B) and of the selfcheck MIN-dominance and LRU-inclusion
// checks (up to 64K ways) made the linear way scans of lookup and victim
// the dominant cost of those runs; narrow sets keep the scans, which beat
// a hash probe at a handful of ways.
//
// Two structures replace the scans, both flat slices in the style of the
// fill table in internal/mem (no Go map: Access is a hot root):
//
//   - tagIndex maps a block number to the line holding it. Block numbers
//     are the full address >> log2(BlockSize), so they are unique
//     cache-wide and one table serves every set.
//   - recency keeps each set's lines in an intrusive circular list, least
//     recent first, so the LRU (or oldest-filled, under FIFO) line is the
//     head.
package cache

// wideWays is the largest associativity served by the linear way scans;
// wider sets use tagIndex and recency. Replaying the compress and
// espresso traces through 16 KB/32 B LRU caches (median of 3 runs, 2-core
// x86-64 KVM host), scan vs index in ns per reference:
//
//	          compress     espresso
//	 8-way   36.8 / 46.5  20.5 / 23.7
//	16-way   49.8 / 47.1  22.7 / 20.0
//	32-way   66.2 / 50.5  33.5 / 24.0
const wideWays = 8

// tagHashMul is the 64-bit Fibonacci-hashing multiplier (2^64/phi); the
// high bits of blk*tagHashMul index the table.
const tagHashMul = 0x9E3779B97F4A7C15

// tagIndex is an open-addressed, linear-probing map from block number to
// line index. keys[i] holds blk+1 so zero marks an empty slot (a block
// number is an address shifted right by at least two bits, so the +1
// cannot wrap); lines[i] is the line for that key. The table has at least
// twice as many slots as the cache has lines, so the load factor stays at
// or under one half and probe chains stay short. Deletion shifts later
// chain members back (Knuth's Algorithm R), so no tombstones accumulate.
type tagIndex struct {
	keys  []uint64
	lines []int32
	mask  uint64 // len(keys)-1
	shift uint   // 64 - log2(len(keys))
}

func newTagIndex(nlines int) tagIndex {
	n, shift := 2, uint(63)
	for n < 2*nlines {
		n <<= 1
		shift--
	}
	return tagIndex{
		keys:  make([]uint64, n),
		lines: make([]int32, n),
		mask:  uint64(n - 1),
		shift: shift,
	}
}

func (t *tagIndex) home(blk uint64) uint64 { return (blk * tagHashMul) >> t.shift }

// get returns the line holding blk, or -1.
func (t *tagIndex) get(blk uint64) int {
	key := blk + 1
	for i := t.home(blk); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			return int(t.lines[i])
		case 0:
			return -1
		}
	}
}

// put records that line holds blk, which must be absent.
func (t *tagIndex) put(blk uint64, line int) {
	i := t.home(blk)
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = blk + 1
	t.lines[i] = int32(line)
}

// del removes blk, which must be present, and closes the gap it leaves
// in its probe chain.
func (t *tagIndex) del(blk uint64) {
	key := blk + 1
	i := t.home(blk)
	for t.keys[i] != key {
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.keys[j] != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: it must never sit before its home.
		if (j-t.home(t.keys[j]-1))&t.mask >= (j-i)&t.mask {
			t.keys[i], t.lines[i] = t.keys[j], t.lines[j]
			i = j
		}
	}
	t.keys[i] = 0
}

// reset empties the table.
func (t *tagIndex) reset() { clear(t.keys) }

// recency orders each set's lines least recent first. prev and next
// link line indices; entry nlines+s is the sentinel of set s, so the
// head of set s is next[nlines+s] and its tail prev[nlines+s], and the
// list operations need no empty-list branches.
//
// Every line of a set is always on its list. Flush (reset) lays each set
// out in way order; a set's invalid ways then stay a prefix of its list,
// in way order, because only fills and hits move a line and both move it
// to the tail. So the head is the set's lowest invalid way while the set
// has one — the fill cursor — and its least-recently-used (under FIFO,
// least-recently-filled) line once the set is full.
type recency struct {
	prev, next []int32
	nlines     int32
	ways       int32
}

func newRecency(nsets, ways int) recency {
	n := nsets*ways + nsets
	r := recency{
		prev:   make([]int32, n),
		next:   make([]int32, n),
		nlines: int32(nsets * ways),
		ways:   int32(ways),
	}
	r.reset()
	return r
}

// head returns the least recent line of set s.
func (r *recency) head(s uint64) int { return int(r.next[r.nlines+int32(s)]) }

// touch moves line i of set s to the tail (most recent).
func (r *recency) touch(s uint64, i int) {
	li, sent := int32(i), r.nlines+int32(s)
	if r.prev[sent] == li {
		return
	}
	p, n := r.prev[li], r.next[li]
	r.next[p], r.prev[n] = n, p
	t := r.prev[sent]
	r.next[t], r.prev[li] = li, t
	r.next[li], r.prev[sent] = sent, li
}

// reset links every set's lines in way order.
func (r *recency) reset() {
	for s := int32(0); s*r.ways < r.nlines; s++ {
		sent, base := r.nlines+s, s*r.ways
		prev := sent
		for i := base; i < base+r.ways; i++ {
			r.prev[i], r.next[prev] = prev, i
			prev = i
		}
		r.next[prev], r.prev[sent] = sent, prev
	}
}
