package bench

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestMetricsDeclared checks every kept metric has a valid name and
// unit, is declared once, and appears in BENCHMARK.json exactly as the
// registry defines it, and that a result carries every metric with its
// unit.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		name     string
		registry []Metric
		declared []struct{ Name, Unit, Better string }
	}{{"end_to_end", EndToEnd, decl.EndToEnd}, {"per_layer", PerLayer, decl.PerLayer}} {
		if len(set.registry) != len(set.declared) {
			t.Errorf("%s: registry has %d metrics, BENCHMARK.json %d", set.name, len(set.registry), len(set.declared))
		}
		values := map[string]float64{}
		for i, m := range set.registry {
			if err := m.Validate(); err != nil {
				t.Error(err)
			}
			if m.Moves == "" {
				t.Errorf("metric %s does not say what it measures or should move", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
			if i < len(set.declared) {
				if d := set.declared[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
					t.Errorf("%s[%d]: BENCHMARK.json has %+v, registry %s %s %s", set.name, i, d, m.Name, m.Unit, m.Better)
				}
			}
			values[m.Name] = float64(i + 1)
		}
		res, err := NewResult(set.registry, values, Tally{Attempted: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range set.registry {
			if v := res.Metrics[m.Name]; v.Unit != m.Unit {
				t.Errorf("%s emitted with unit %q, want %q", m.Name, v.Unit, m.Unit)
			}
		}
		delete(values, set.registry[0].Name)
		if _, err := NewResult(set.registry, values, Tally{Attempted: 1}); err == nil {
			t.Errorf("%s: a result missing %s was accepted", set.name, set.registry[0].Name)
		}
	}
	if (Metric{Name: "bad name", Unit: "ms", Better: "lower"}).Validate() == nil {
		t.Error("a name with a space validated")
	}
}

// TestHostRefIsFixedWork checks the host reference does the same work on
// every call, and that a time is scaled by the nominal reference time
// over the run's median sample or over the samples around it.
func TestHostRefIsFixedWork(t *testing.T) {
	if got := refKernel(); got != RefChecksum {
		t.Fatalf("reference workload checksum %#x, want %#x", got, RefChecksum)
	}
	h := NewHostSpeed(1)
	if got := h.Scale(); got != 1 {
		t.Errorf("scale before any sample = %v, want 1", got)
	}
	h.Sample()
	if h.Samples() != 1 || h.Median() <= 0 {
		t.Errorf("one sample gave %d samples, median %v", h.Samples(), h.Median())
	}
	h.samples = []float64{0.05, 2 * RefNominal.Seconds(), 2 * RefNominal.Seconds()}
	if got := h.Scale(); got != 0.5 {
		t.Errorf("scale at twice the nominal reference time = %v, want 0.5", got)
	}
	if got, want := h.Around(0), RefNominal.Seconds()/((0.05+2*RefNominal.Seconds())/2); got != want {
		t.Errorf("scale around the first sample = %v, want %v", got, want)
	}
	if got := h.Around(2); got != 0.5 {
		t.Errorf("scale after the last sample = %v, want 0.5", got)
	}
}

// TestCorruptedReferenceIsAFailure checks a reference output that no
// longer matches the program's output fails the operation and the run.
func TestCorruptedReferenceIsAFailure(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "ref", "fig3-grid.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var tally Tally
	tally.Check(CheckOutput("fig3-grid.txt", got, got))
	corrupt := append([]byte(nil), got...)
	for i, c := range corrupt {
		if c >= '0' && c <= '8' {
			corrupt[i]++
			break
		}
	}
	tally.Check(CheckOutput("fig3-grid.txt", got, corrupt))
	tally.Check(CheckOutput("fig3-grid.txt", got, got[:len(got)-1]))
	if tally.Attempted != 3 || tally.Failed != 2 {
		t.Fatalf("tally %d attempted, %d failed; want 3 and 2", tally.Attempted, tally.Failed)
	}
	res, err := NewResult([]Metric{{"x", "ms", "lower", ""}}, map[string]float64{"x": 1}, tally)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 {
		t.Fatalf("result %+v: want correct=false with 2 failures", res)
	}
}

// TestScheduleIsAFunctionOfTheSeed checks the same seed gives the same
// schedule, and another seed different cells in the same class shares
// with the same work.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	rounds := Rounds(60)
	a, err := Schedule(7, rounds)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Schedule(7, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave two schedules")
	}
	b, err := Schedule(8, rounds)
	if err != nil {
		t.Fatal(err)
	}
	shares := func(es []Entry) map[Class]int { // requests sent per class
		m := map[Class]int{}
		for _, e := range es {
			m[e.Class] += e.Sends()
		}
		return m
	}
	if sa, sb := shares(a), shares(b); !reflect.DeepEqual(sa, sb) || sa[Cold] != sa[Memo] || sa[Cold] != sa[Coalesced] {
		t.Errorf("class shares differ between seeds or are not equal: %v vs %v", sa, sb)
	}
	cells := func(es []Entry) map[string]bool {
		m := map[string]bool{}
		for _, e := range es {
			for _, c := range e.Spec.Cells() {
				m[c.Key()] = true
			}
		}
		return m
	}
	if reflect.DeepEqual(cells(a), cells(b)) {
		t.Error("two seeds asked for the same cells")
	}
	for i := range a {
		wa, wb := a[i].Spec, b[i].Spec
		wa.CacheScale, wb.CacheScale = 0, 0
		if a[i].Class != Memo && (!reflect.DeepEqual(wa, wb) || a[i].Due != b[i].Due || a[i].Round != b[i].Round) {
			t.Errorf("fresh entry %d asks for different work under two seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		if _, err := Schedule(seed, 3*rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	// Within a round, cold and coalesced entries ask only for cells no
	// earlier entry asked for, and memo entries repeat an earlier cold or
	// coalesced entry of the round due at least MemoLag before them.
	space := map[string]bool{}
	for _, c := range CellSpace() {
		space[c.Key()] = true
	}
	asked := map[string]int{}
	for _, e := range a {
		if e.Class == Memo {
			if e.Of < 0 || a[e.Of].Class == Memo || a[e.Of].Round != e.Round || !reflect.DeepEqual(a[e.Of].Spec, e.Spec) {
				t.Fatalf("memo entry %d does not repeat a fresh request of its round: %+v", e.ID, e)
			}
			if a[e.Of].Due > e.Due-MemoLag {
				t.Errorf("memo entry %d repeats entry %d due only %v earlier", e.ID, e.Of, e.Due-a[e.Of].Due)
			}
			continue
		}
		if n := len(e.Spec.Cells()); n < 1 || n > 6 {
			t.Errorf("entry %d asks for %d cells, want 1 to 6", e.ID, n)
		}
		for _, c := range e.Spec.Cells() {
			if r, ok := asked[c.Key()]; ok && r == e.Round {
				t.Errorf("fresh entry %d asks again for %s in round %d", e.ID, c.Key(), r)
			}
			if !space[c.Key()] {
				t.Errorf("entry %d asks for %s, outside the cell space", e.ID, c.Key())
			}
			asked[c.Key()] = e.Round
		}
	}
}

// TestServeRefCoversCellSpace checks the committed serve-mix reference
// holds a payload for exactly the cells a schedule can ask for.
func TestServeRefCoversCellSpace(t *testing.T) {
	if _, err := LoadServeRef(filepath.Join("..", "ref", ServeRefFile)); err != nil {
		t.Fatal(err)
	}
}

func TestGuardArgsRefusesTelemetry(t *testing.T) {
	for _, args := range [][]string{{"fig3", "-metrics", "m.json"}, {"serve", "--events=e.jsonl"}, {"fig3", "-progress"}} {
		if GuardArgs(args) == nil {
			t.Errorf("GuardArgs(%q) allowed a telemetry flag", args)
		}
	}
	if err := GuardArgs([]string{"fig3", "-suite", "both", "-j", "2"}); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("Quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
}

// TestGenerateHoldsConnectionBudget runs a fast schedule against a slow
// fake server: never more than conns requests are in flight, a coalesced
// pair goes out together, and every request is accounted for. A budget
// too small for a coalesced pair is an error, not a stall.
func TestGenerateHoldsConnectionBudget(t *testing.T) {
	const conns = 2
	var inflight, most atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	entries, err := Schedule(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		entries[i].Due /= 400 // 10 s of schedule in 25 ms
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := Generate(ctx, Client(1), srv.URL, entries, 1); err == nil {
		t.Fatal("Generate accepted one connection for a coalesced pair")
	}
	out, err := Generate(ctx, Client(conns), srv.URL, entries, conns)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, e := range entries {
		sends += e.Sends()
	}
	if len(out) != sends {
		t.Fatalf("%d outcomes for %d requests", len(out), sends)
	}
	for i, o := range out {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, o.Status, o.Err)
		}
		if o.Late() < 0 || o.Latency() < o.Late() {
			t.Errorf("request %d: late %v, latency %v", i, o.Late(), o.Latency())
		}
		if o.Copy == 1 && out[i-1].Sent != o.Sent {
			t.Errorf("coalesced pair %d sent apart: %v and %v", o.Entry.ID, out[i-1].Sent, o.Sent)
		}
	}
	if m := most.Load(); m > conns {
		t.Errorf("%d requests in flight, want at most %d", m, conns)
	}
}
