// Package trace defines the memory-reference stream representation shared
// by the trace-driven simulators (internal/cache, internal/mtc) and the
// workload generators (internal/workload).
//
// A trace is a sequence of Ref values — data loads and stores with byte
// addresses — matching what the paper obtained from QPT: "The traces
// contained data memory references but no instructions" (Section 4.1).
// Like QPT, double-word accesses are represented as two consecutive
// single-word references, so every Ref is a 4-byte word access.
package trace

import (
	"fmt"
)

// WordSize is the request size assumed for all trace references, in bytes.
// The paper assumes 4-byte word requests for all experiments (Section 5.2).
const WordSize = 4

// Kind discriminates loads from stores.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is a single data memory reference: a 4-byte access at Addr.
type Ref struct {
	Kind Kind
	Addr uint64
}

// Word returns the word-aligned address of the reference.
func (r Ref) Word() uint64 { return r.Addr &^ (WordSize - 1) }

// Stream produces a sequence of references. Implementations must be
// restartable via Reset so multi-pass algorithms (such as the two-pass MIN
// simulation) and multi-configuration sweeps can replay the same trace.
type Stream interface {
	// Next returns the next reference, or ok=false at end of trace.
	Next() (ref Ref, ok bool)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// SliceStream adapts an in-memory []Ref to the Stream interface.
type SliceStream struct {
	refs []Ref
	pos  int
}

// NewSliceStream returns a Stream over refs. The slice is not copied.
func NewSliceStream(refs []Ref) *SliceStream {
	return &SliceStream{refs: refs}
}

// Next implements Stream.
func (s *SliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of references in the stream.
func (s *SliceStream) Len() int { return len(s.refs) }

// Collect drains a stream into a slice, then resets it.
func Collect(s Stream) []Ref { return CollectN(s, 0) }

// CollectN is Collect for a stream known to hold n references: the slice
// is allocated once at that capacity instead of growing by append, which
// for a multi-million-reference trace allocates several times the bytes
// it keeps.
func CollectN(s Stream, n int) []Ref {
	var refs []Ref
	if n > 0 {
		refs = make([]Ref, 0, n)
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	s.Reset()
	return refs
}

// Stats summarises a reference stream.
type Stats struct {
	Refs   int64 // total references
	Reads  int64
	Writes int64
	// Footprint is the number of distinct words touched; multiplied by
	// WordSize it gives the data-set size in bytes (paper Table 3).
	Footprint int64
}

// Bytes returns the total processor-side traffic implied by the stream:
// refs × word size. This is the denominator of the level-1 traffic ratio.
func (st Stats) Bytes() int64 { return st.Refs * WordSize }

// FootprintBytes returns the data-set size in bytes.
func (st Stats) FootprintBytes() int64 { return st.Footprint * WordSize }

// Measure scans a stream, computes its Stats, and resets it.
func Measure(s Stream) Stats {
	var st Stats
	seen := make(map[uint64]struct{})
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		st.Refs++
		if r.Kind == Read {
			st.Reads++
		} else {
			st.Writes++
		}
		w := r.Word()
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			st.Footprint++
		}
	}
	s.Reset()
	return st
}

// Limit wraps a stream, truncating it after n references.
type Limit struct {
	inner Stream
	n     int64
	done  int64
}

// NewLimit returns a stream yielding at most n references from inner.
func NewLimit(inner Stream, n int64) *Limit {
	return &Limit{inner: inner, n: n}
}

// Next implements Stream.
func (l *Limit) Next() (Ref, bool) {
	if l.done >= l.n {
		return Ref{}, false
	}
	r, ok := l.inner.Next()
	if !ok {
		return Ref{}, false
	}
	l.done++
	return r, true
}

// Reset implements Stream.
func (l *Limit) Reset() {
	l.inner.Reset()
	l.done = 0
}

// FuncStream adapts a generator function to Stream. The make function is
// invoked on construction and on every Reset, and must return a fresh
// iterator closure that yields successive references until ok=false.
type FuncStream struct {
	make func() func() (Ref, bool)
	next func() (Ref, bool)
}

// NewFuncStream returns a restartable stream backed by generator factories.
func NewFuncStream(make func() func() (Ref, bool)) *FuncStream {
	return &FuncStream{make: make, next: make()}
}

// Next implements Stream.
func (f *FuncStream) Next() (Ref, bool) { return f.next() }

// Reset implements Stream.
func (f *FuncStream) Reset() { f.next = f.make() }
