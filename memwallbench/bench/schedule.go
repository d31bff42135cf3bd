package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// Class is a serve-mix request class.
type Class string

// The three serve-mix request classes.
const (
	// Cold requests cells no request has asked for yet.
	Cold Class = "cold"
	// Memo repeats an earlier request that should have completed.
	Memo Class = "memo"
	// Coalesced sends one cold request on both connections at once.
	Coalesced Class = "coalesced"
)

// Spec is the part of memwall serve's experiment spec the schedule uses.
type Spec struct {
	Kind        string   `json:"kind"`
	Suite       string   `json:"suite"`
	Benchmarks  []string `json:"benchmarks"`
	Experiments []string `json:"experiments"`
	Scale       int      `json:"scale"`
	CacheScale  int      `json:"cacheScale"`
}

// Cell is one (benchmark, machine) cell at one (scale, cacheScale).
type Cell struct {
	Suite      string `json:"suite"` // "SPEC92" or "SPEC95", as serve reports it
	Benchmark  string `json:"benchmark"`
	Experiment string `json:"experiment"`
	Scale      int    `json:"scale"`
	CacheScale int    `json:"cacheScale"`
}

// Key names the cell uniquely across settings.
func (c Cell) Key() string {
	return fmt.Sprintf("fig3:%s:%s/%s@%d/%d", c.Suite, c.Benchmark, c.Experiment, c.Scale, c.CacheScale)
}

// Panel is one suite's Figure 3 benchmark panel.
type Panel struct {
	Suite      string // as serve reports it
	Code       string // as a spec names it
	Benchmarks []string
}

// Panels are the Figure 3 panels `memwall fig3 -suite both` runs: 13
// benchmarks (the SPEC92 panel omits dnasa2).
var Panels = []Panel{
	{"SPEC92", "92", []string{"compress", "eqntott", "espresso", "su2cor", "swm", "tomcatv"}},
	{"SPEC95", "95", []string{"applu", "hydro2d", "li", "perl", "su2cor95", "swim95", "vortex"}},
}

// Experiments are the machines A-F, in grid order.
var Experiments = []string{"A", "B", "C", "D", "E", "F"}

// CacheScales are the cacheScale settings the seed draws fresh cells
// from, at scale 1. They are the two settings of equal cost: a direct
// Decompose of all 78 Figure 3 cells took 23.2 ms per cell at 128 and
// 23.6-23.9 ms at 256, against 17.1 at 16, 18.3-19.0 at 32, 20.6-21.3 at
// 64 and 25.3 at 512 (2-core KVM host, -pgo=default.pgo, two passes).
// So which setting a seed draws changes the cells but not the work.
var CacheScales = []int{128, 256}

// ServeRate is the serve-mix rate in entries per second. With one
// coalesced pair per five entries it sends 2.4 requests per second,
// below serve's default admission rate of 4 per second.
const ServeRate = 2.0

// RoundEntries is the number of entries in one round: 12 fresh
// requests, so that no benchmark is asked for twice in a round and any
// cell count fits, and 8 memo requests. A round lasts 10 s at ServeRate.
const RoundEntries = 20

// MemoLag is how long before a memo request the request it repeats was
// due, so that it has normally completed.
const MemoLag = time.Second

// MinConns is the connection budget serve-mix needs: a coalesced entry
// sends its two requests at once.
const MinConns = 2

// CellSpace is every cell a schedule can ask for: the 13 benchmarks on
// machines A-F at each of CacheScales, at scale 1.
func CellSpace() []Cell {
	var out []Cell
	for _, p := range Panels {
		for _, b := range p.Benchmarks {
			for _, cs := range CacheScales {
				out = append(out, Spec{Kind: "fig3", Suite: p.Code, Benchmarks: []string{b}, Experiments: Experiments, Scale: 1, CacheScale: cs}.Cells()...)
			}
		}
	}
	return out
}

// Cells expands a spec into its cells in serve's order.
func (s Spec) Cells() []Cell {
	suite := ""
	for _, p := range Panels {
		if p.Code == s.Suite {
			suite = p.Suite
		}
	}
	var out []Cell
	for _, b := range s.Benchmarks {
		for _, e := range s.Experiments {
			out = append(out, Cell{suite, b, e, s.Scale, s.CacheScale})
		}
	}
	return out
}

// Entry is one scheduled serve-mix request.
type Entry struct {
	ID    int
	Round int
	Due   time.Duration // from the start of its round
	Class Class
	Spec  Spec
	// Of is the ID of the entry a memo request repeats; -1 otherwise.
	Of int
}

// Sends is the number of HTTP requests the entry makes.
func (e Entry) Sends() int {
	if e.Class == Coalesced {
		return 2
	}
	return 1
}

// blockClasses are the classes of every block of five entries. No
// source fixes the mix of serve traffic (the paper has no server, and
// serve has no recorded users), so it is a chosen equal split: each
// class sends a third of the requests, as a coalesced entry sends two.
// Memo requests are the fastest and coalesced ones the slowest, so the
// median request is a cold one and the 80th percentile a coalesced one,
// rather than a boundary between classes.
var blockClasses = []Class{Cold, Coalesced, Memo, Cold, Memo}

// Schedule returns rounds rounds of RoundEntries entries each, due at
// ServeRate from the start of their round. Each round is meant for a
// fresh server with an empty checkpoint directory. It is a pure function
// of its arguments.
//
// What work the schedule asks for, and when, is the same for every seed,
// so that runs with different seeds measure the same load: the j-th
// fresh (cold or coalesced) request goes to benchmark j mod 13, on the
// machines from j/13 mod 6 on, and the c-th request of its class asks
// for 1 + c mod 6 cells, so both classes cycle through every cell count
// and the latency of neither clusters at a few sizes. A round holds 12
// fresh requests, so its cells never repeat. The seed picks
// each fresh request's cacheScale among the equal-cost CacheScales, and
// which earlier fresh request of the round each memo entry repeats.
func Schedule(seed uint64, rounds int) ([]Entry, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("schedule of %d rounds: want >= 1", rounds)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d656d77616c6c))
	type pb struct{ panel, bench int }
	var benches []pb
	for pi, p := range Panels {
		for bi := range p.Benchmarks {
			benches = append(benches, pb{pi, bi})
		}
	}
	fresh := 0
	drawn := map[Class]int{}
	var out []Entry
	for r := 0; r < rounds; r++ {
		first := len(out)
		for i := 0; i < RoundEntries; i++ {
			e := Entry{ID: len(out), Round: r, Due: time.Duration(float64(i) / ServeRate * float64(time.Second)),
				Class: blockClasses[i%len(blockClasses)], Of: -1}
			if e.Class == Memo {
				var eligible []int
				for _, p := range out[first:] {
					if p.Class != Memo && p.Due <= e.Due-MemoLag {
						eligible = append(eligible, p.ID)
					}
				}
				if len(eligible) == 0 {
					return nil, fmt.Errorf("memo entry %d has no earlier request to repeat", e.ID)
				}
				e.Of = eligible[rng.IntN(len(eligible))]
				e.Spec = out[e.Of].Spec
			} else {
				j := fresh
				fresh++
				b := benches[j%len(benches)]
				k := 1 + drawn[e.Class]%len(Experiments)
				drawn[e.Class]++
				var exps []string
				for m := range k {
					exps = append(exps, Experiments[(j/len(benches)+m)%len(Experiments)])
				}
				slices.Sort(exps) // A-F sort lexically
				e.Spec = Spec{Kind: "fig3", Suite: Panels[b.panel].Code, Benchmarks: []string{Panels[b.panel].Benchmarks[b.bench]},
					Experiments: exps, Scale: 1, CacheScale: CacheScales[rng.IntN(len(CacheScales))]}
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// Rounds is the number of rounds that fill about seconds at ServeRate.
func Rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*ServeRate/RoundEntries)))
}
