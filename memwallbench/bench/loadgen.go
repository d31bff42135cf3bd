package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Outcome is one HTTP request of a schedule entry.
type Outcome struct {
	Entry Entry
	// Copy is 1 for the second request of a coalesced pair, else 0.
	Copy int
	// Sent and Done are offsets from the start of the run; the request
	// was due at Entry.Due.
	Sent, Done time.Duration
	Status     int
	Body       []byte
	Err        error
}

// Latency is the request's time from when it was due to its response:
// a stall that delays sending counts against the request.
func (o Outcome) Latency() time.Duration { return o.Done - o.Entry.Due }

// Late is how long after its due time the request was sent.
func (o Outcome) Late() time.Duration { return o.Sent - o.Entry.Due }

// Client returns an HTTP client holding at most conns connections to
// one server.
func Client(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// Generate runs the schedule open-loop against the server at base, from
// one process with at most conns requests in flight. Each entry is sent
// when due, or as soon as enough connections are free (a coalesced
// entry needs two at once); entries go out in schedule order. It
// returns every request's outcome in schedule order once all have
// completed, or an error if ctx ends first. An entry that needs more
// connections than conns is an error up front, not a stall.
func Generate(ctx context.Context, client *http.Client, base string, entries []Entry, conns int) ([]Outcome, error) {
	var slots []*Outcome
	for _, e := range entries {
		if e.Sends() > conns {
			return nil, fmt.Errorf("entry %d sends %d requests at once, over the budget of %d connections", e.ID, e.Sends(), conns)
		}
		for c := 0; c < e.Sends(); c++ {
			slots = append(slots, &Outcome{Entry: e, Copy: c})
		}
	}
	free := make(chan struct{}, conns) // a counting semaphore of connections
	for i := 0; i < conns; i++ {
		free <- struct{}{}
	}
	var wg sync.WaitGroup
	start := time.Now()
	i := 0
	for i < len(slots) {
		e := slots[i].Entry
		if err := sleepUntil(ctx, start.Add(e.Due)); err != nil {
			wg.Wait()
			return nil, err
		}
		for c := 0; c < e.Sends(); c++ {
			select {
			case <-free:
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		}
		sent := time.Since(start)
		for c := 0; c < e.Sends(); c++ {
			o := slots[i]
			i++
			o.Sent = sent
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { free <- struct{}{} }()
				o.Status, o.Body, o.Err = Post(ctx, client, base, o.Entry.Spec)
				o.Done = time.Since(start)
			}()
		}
	}
	wg.Wait()
	out := make([]Outcome, len(slots))
	for i, o := range slots {
		out[i] = *o
	}
	return out, nil
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Post sends one experiment spec and returns the status and body.
func Post(ctx context.Context, client *http.Client, base string, s Spec) (int, []byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/experiments", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// Response is the part of serve's job response the benchmark checks.
type Response struct {
	Cells []struct {
		Suite         string          `json:"suite"`
		Benchmark     string          `json:"benchmark"`
		Experiment    string          `json:"experiment"`
		Decomposition json.RawMessage `json:"decomposition"`
		Counts        json.RawMessage `json:"counts"`
	} `json:"cells"`
	Stats struct {
		Computed    int     `json:"computed"`
		WallSeconds float64 `json:"wallSeconds"`
	} `json:"stats"`
}

// Payload is a cell's deterministic result as serve journals it; the
// oracle computes the same shape directly.
type Payload struct {
	Decomposition json.RawMessage `json:"decomposition"`
	Counts        json.RawMessage `json:"counts"`
}

// CheckResponse verifies one outcome: status 200, the spec's cells in
// order, and each cell's payload equal to want[cell key] after
// compaction. It returns the decoded response.
func CheckResponse(o Outcome, want map[string]Payload) (Response, error) {
	var r Response
	if o.Err != nil {
		return r, fmt.Errorf("request %d: %w", o.Entry.ID, o.Err)
	}
	if o.Status != http.StatusOK {
		return r, fmt.Errorf("request %d: status %d: %.200s", o.Entry.ID, o.Status, o.Body)
	}
	if err := json.Unmarshal(o.Body, &r); err != nil {
		return r, fmt.Errorf("request %d: decoding response: %w", o.Entry.ID, err)
	}
	cells := o.Entry.Spec.Cells()
	if len(r.Cells) != len(cells) {
		return r, fmt.Errorf("request %d: %d cells, want %d", o.Entry.ID, len(r.Cells), len(cells))
	}
	for i, c := range cells {
		got := r.Cells[i]
		if got.Suite != c.Suite || got.Benchmark != c.Benchmark || got.Experiment != c.Experiment {
			return r, fmt.Errorf("request %d: cell %d is %s/%s/%s, want %s", o.Entry.ID, i, got.Suite, got.Benchmark, got.Experiment, c.Key())
		}
		w, ok := want[c.Key()]
		if !ok {
			return r, fmt.Errorf("request %d: no reference payload for %s", o.Entry.ID, c.Key())
		}
		if err := SamePayload(Payload{got.Decomposition, got.Counts}, w); err != nil {
			return r, fmt.Errorf("request %d: %s %w", o.Entry.ID, c.Key(), err)
		}
	}
	return r, nil
}

// SamePayload compares two cell payloads after JSON compaction.
func SamePayload(got, want Payload) error {
	if err := sameJSON(got.Decomposition, want.Decomposition); err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	if err := sameJSON(got.Counts, want.Counts); err != nil {
		return fmt.Errorf("counts: %w", err)
	}
	return nil
}

func sameJSON(got, want json.RawMessage) error {
	var g, w bytes.Buffer
	if err := json.Compact(&g, got); err != nil {
		return err
	}
	if err := json.Compact(&w, want); err != nil {
		return err
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Errorf("got %.120s, want %.120s", g.String(), w.String())
	}
	return nil
}
