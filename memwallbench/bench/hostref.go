package bench

import (
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by up to
// 2x over minutes and hours, and every simulation slows with it, in wall
// and CPU time alike. So the harness times a fixed reference workload
// between operations and reports its times scaled to a host on which the
// reference takes RefNominal. The reference is the benchmark's own code
// and never changes with memwall, so a change to memwall moves the scaled
// times just as it moves the raw ones.

// RefNominal is the reference workload's time on the nominal host, the
// speed every reported time is scaled to: a round figure within the 60 to
// 115 ms it took on a 2-core KVM host (Intel Xeon, Go 1.24) as the host's
// load changed.
const RefNominal = 100 * time.Millisecond

// refIters is the reference workload's size per goroutine.
const refIters = 2_500_000

// RefChecksum is what refKernel returns; a different value means the
// reference workload changed.
const RefChecksum = 0x183e10000de790

// HostRef runs the reference workload once on n goroutines and returns
// its wall time.
func HostRef(n int) time.Duration {
	var wg sync.WaitGroup
	sums := make([]uint64, n)
	start := time.Now()
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refKernel()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		if s != RefChecksum {
			panic("memwallbench: the host reference workload computed a wrong result")
		}
	}
	return d
}

// refKernel is a 4-way set-associative LRU cache simulation over a
// fixed pseudo-random address stream that mixes sequential, nearby and
// scattered references: branchy integer work over a few hundred KB, like
// the simulators memwall runs. Every call does the same work. It returns
// its hit and miss counts as a checksum.
func refKernel() uint64 {
	const sets, ways = 4096, 4
	tags := make([]uint64, sets*ways)
	age := make([]uint8, sets*ways)
	x := uint64(0x9e3779b97f4a7c15)
	var base, hits, misses uint64
	for range refIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var addr uint64
		switch x % 8 {
		case 0, 1, 2, 3:
			base += 8
			addr = base
		case 4, 5:
			addr = base - (x>>8)%4096
		default:
			addr = (x >> 12) % (1 << 24)
		}
		blk := addr >> 5
		set := blk % sets
		t := tags[set*ways : set*ways+ways]
		a := age[set*ways : set*ways+ways]
		way := -1
		for w := range ways {
			if t[w] == blk+1 {
				way = w
				break
			}
		}
		if way < 0 {
			misses++
			way = 0
			for w := 1; w < ways; w++ {
				if a[w] > a[way] {
					way = w
				}
			}
			t[way] = blk + 1
		} else {
			hits++
		}
		for w := range ways {
			if a[w] < 255 {
				a[w]++
			}
		}
		a[way] = 0
	}
	return hits<<32 | misses
}

// HostSpeed collects reference samples over a run.
type HostSpeed struct {
	n       int
	samples []float64 // seconds
}

// NewHostSpeed samples with n goroutines, the parallelism the workload's
// memwall processes use.
func NewHostSpeed(n int) *HostSpeed { return &HostSpeed{n: n} }

// Sample times the reference workload once.
func (h *HostSpeed) Sample() {
	h.samples = append(h.samples, HostRef(h.n).Seconds())
}

// Median is the run's median reference time in seconds.
func (h *HostSpeed) Median() float64 { return Median(h.samples) }

// Samples is how many reference samples the run took.
func (h *HostSpeed) Samples() int { return len(h.samples) }

// Around is the factor that turns the times of an operation run between
// samples i and i+1 into times at the nominal host speed: RefNominal over
// the mean of the two, or over sample i alone when it is the last.
func (h *HostSpeed) Around(i int) float64 {
	ref := h.samples[i]
	if i+1 < len(h.samples) {
		ref = (ref + h.samples[i+1]) / 2
	}
	return RefNominal.Seconds() / ref
}

// Scale is the factor that turns a time measured in this run into one
// at the nominal host speed: RefNominal over the run's median reference
// time. It is 1 before any sample.
func (h *HostSpeed) Scale() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return RefNominal.Seconds() / h.Median()
}
