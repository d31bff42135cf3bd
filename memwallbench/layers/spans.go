package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	Name       string
	ID, Parent string
	Lane       int // Chrome-trace thread: 0 the main goroutine, 1..n pool workers
	Start, End time.Time
	Args       map[string]any
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing: the untraced passes run the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ids   int
}

// id returns a fresh span ID with the given prefix ("" from a nil
// recorder).
func (r *recorder) id(prefix string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return fmt.Sprintf("%s-%d", prefix, r.ids)
}

// add records a span; id may be "" for a leaf nobody refers to.
func (r *recorder) add(name, id, parent string, lane int, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, id, parent, lane, start, end, args})
}

// total sums the durations of the spans named name for which keep
// (when non-nil) holds, and sums their integer "insts"/"refs" argument
// named by weight ("" for none).
func (r *recorder) total(name string, keep func(span) bool, weight string) (time.Duration, int64) {
	var d time.Duration
	var w int64
	for _, s := range r.spans {
		if s.Name != name || (keep != nil && !keep(s)) {
			continue
		}
		d += s.End.Sub(s.Start)
		if n, ok := s.Args[weight].(int64); ok {
			w += n
		}
	}
	return d, w
}

// durations lists the durations, in ms, of the spans named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End.Sub(s.Start))/1e6)
		}
	}
	return out
}

// traceEvent is one Chrome-trace complete event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every span of every recorder as Chrome-trace
// complete events (microseconds from epoch). Each event's args carry its
// ID, parent and self time: its duration minus the part of its interval
// its child spans cover.
func writeChromeTrace(path string, epoch time.Time, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	children := map[string][]span{}
	for _, s := range all {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	events := make([]traceEvent, 0, len(all))
	for _, s := range all {
		args := map[string]any{}
		for k, v := range s.Args {
			args[k] = v
		}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		args["self_us"] = float64(s.End.Sub(s.Start)-covered(s, children[s.ID])) / 1e3
		events = append(events, traceEvent{s.Name, "memwallbench", "X",
			float64(s.Start.Sub(epoch)) / 1e3, float64(s.End.Sub(s.Start)) / 1e3, 1, s.Lane, args})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(cur) {
			start = cur
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}
