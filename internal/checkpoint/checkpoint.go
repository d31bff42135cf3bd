// Package checkpoint is the crash-safe cell ledger behind -checkpoint-dir
// and -resume: each completed (benchmark, experiment/config) grid cell's
// result is journaled to a per-run file, so a run killed at cell 40 of 48
// resumes by recomputing only the missing eight — with output
// byte-identical to an uninterrupted run at any worker count.
//
// Identity discipline mirrors the corpus disk tier: the ledger file is
// named by the run's manifest fingerprint (internal/telemetry), and the
// fingerprint is repeated inside the file. A ledger can therefore only
// ever be replayed into the exact configuration that produced it; any
// mismatch — as any unreadable, truncated, checksum-failing, or
// wrong-format file — degrades to a counted full re-run, never a wrong
// answer.
//
// Write discipline: the ledger is a cache of deterministic results, not a
// store of record. Every write rewrites the whole file through
// faultinject.WriteAtomic (temp file + rename; the streamlint atomicwrite
// rule enforces this), so a crash — or an injected short write, ENOSPC,
// or torn rename — can at worst lose recent cells or leave a file the
// next run detects as corrupt and discards. Record failures disable
// further journaling for the run (counted, reported once) rather than
// failing it: a full disk must not kill the grid it was meant to protect.
//
// Integrity: the cells map is protected by a SHA-256 checksum computed
// over its canonical JSON. A flipped bit that still parses as JSON —
// silent media corruption — fails the checksum and degrades to a re-run,
// which is what makes "never a wrong answer" hold against byzantine
// files, not just truncated ones.
//
// Memoization: Do is the runner's checkpoint seam. Beyond serving and
// journaling cells it coalesces concurrent requests for one key onto a
// single computation, which is what lets `memwall serve` answer N
// identical in-flight cells with one simulation. A ledger from
// NewMemory is the same tier without a file.
package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"memwall/internal/faultinject"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
)

// Format versions the ledger schema; bumping it retires every existing
// ledger at once (format mismatch degrades to a fresh ledger). Format 2:
// serve journals whole core.DecomposeResult cells, where Format 1 held
// its own {decomposition, counts} shape — which would decode into a
// zero result without error.
const Format = 2

// ledgerFile is the on-disk schema. Cells map the runner's cell keys
// (e.g. "table6:SPEC92:su2cor/F") to their JSON-encoded results; Sum is
// the hex SHA-256 of the canonical cells encoding.
type ledgerFile struct {
	Format      int                        `json:"format"`
	Fingerprint string                     `json:"fingerprint"`
	Cells       map[string]json.RawMessage `json:"cells"`
	Sum         string                     `json:"sum"`
}

// cellsSum computes the integrity checksum over the canonical (sorted-key,
// encoding/json) serialization of cells.
func cellsSum(cells map[string]json.RawMessage) (string, error) {
	b, err := json.Marshal(cells)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Options configures Open.
type Options struct {
	// Dir is the checkpoint directory (created on first write).
	Dir string
	// Fingerprint is the run's manifest fingerprint; it keys the ledger
	// file and must match the fingerprint recorded inside it.
	Fingerprint string
	// Resume enables serving completed cells from the ledger. Without it
	// the ledger only records (a pure journal), so an interrupted run can
	// be resumed later by rerunning with -resume.
	Resume bool
	// FS is the filesystem seam; nil selects the real filesystem. Tests
	// inject faults by passing an Injector-wrapped FS.
	FS faultinject.FS
	// Metrics receives the checkpoint.* counters; nil disables them.
	Metrics *telemetry.Registry
}

// counters are the ledger's telemetry instruments (all nil-safe).
type counters struct {
	hits    *telemetry.Counter // checkpoint.hits: cells served from the ledger
	misses  *telemetry.Counter // checkpoint.misses: lookups that must compute
	writes  *telemetry.Counter // checkpoint.writes: successful journal rewrites
	corrupt *telemetry.Counter // checkpoint.corrupt: unreadable/checksum-failing ledgers
	stale   *telemetry.Counter // checkpoint.stale: fingerprint/format mismatches
	errors  *telemetry.Counter // checkpoint.errors: journal write failures
}

func newCounters(r *telemetry.Registry) counters {
	return counters{
		hits:    r.Counter("checkpoint.hits"),
		misses:  r.Counter("checkpoint.misses"),
		writes:  r.Counter("checkpoint.writes"),
		corrupt: r.Counter("checkpoint.corrupt"),
		stale:   r.Counter("checkpoint.stale"),
		errors:  r.Counter("checkpoint.errors"),
	}
}

// Ledger is one run's checkpoint journal. It is safe for concurrent use
// by the runner's workers; a nil *Ledger disables checkpointing (Lookup
// always misses, Record no-ops, Do computes), so call sites thread it
// unconditionally.
type Ledger struct {
	dir         string // "" for a memory-only ledger (NewMemory)
	fingerprint string
	path        string
	fsys        faultinject.FS
	ctr         counters
	resume      bool

	mu       sync.Mutex
	cells    map[string]json.RawMessage
	flight   map[string]*call // computations in progress, by key
	disabled bool             // journaling stopped after a write failure; cells still memoize
	closed   bool             // ledger retired by Close; Lookup misses, Record no-ops

	// corruptions and staleness track detection counts independently of
	// the (optional) metrics registry, for exit-code reporting.
	corruptions int64
	staleHits   int64
}

// Open loads (or initializes) the ledger for a run fingerprint. A
// corrupted or stale ledger file is discarded — counted, never fatal —
// and the run proceeds as a full re-run. The only error returned is a
// missing fingerprint or directory, which is a caller bug, not a disk
// state.
func Open(opts Options) (*Ledger, error) {
	if opts.Dir == "" || opts.Fingerprint == "" {
		return nil, fmt.Errorf("checkpoint: Open needs a directory and a run fingerprint (dir %q, fingerprint %q)", opts.Dir, opts.Fingerprint)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultinject.OS()
	}
	l := &Ledger{
		dir:         opts.Dir,
		fingerprint: opts.Fingerprint,
		path:        filepath.Join(opts.Dir, "run-"+opts.Fingerprint[:min(24, len(opts.Fingerprint))]+".json"),
		fsys:        fsys,
		ctr:         newCounters(opts.Metrics),
		resume:      opts.Resume,
		cells:       map[string]json.RawMessage{},
		flight:      map[string]*call{},
	}
	l.load()
	return l, nil
}

// NewMemory returns a ledger that keeps its cells in memory only: it
// serves and coalesces like a resumable Open'd ledger, but writes no
// file, so nothing outlives the process.
func NewMemory() *Ledger {
	return &Ledger{
		resume: true,
		cells:  map[string]json.RawMessage{},
		flight: map[string]*call{},
	}
}

// load reads the ledger file, classifying every defect as corrupt or
// stale and degrading to an empty ledger.
func (l *Ledger) load() {
	b, err := l.fsys.ReadFile(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return // cold: first run with this configuration
		}
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	var lf ledgerFile
	if err := json.Unmarshal(b, &lf); err != nil {
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	if lf.Format != Format || lf.Fingerprint != l.fingerprint {
		// A hand-copied or out-of-date ledger: structurally fine, wrong
		// identity. Counted separately from corruption.
		l.ctr.stale.Inc()
		l.staleHits++
		return
	}
	sum, err := cellsSum(lf.Cells)
	if err != nil || sum != lf.Sum {
		l.ctr.corrupt.Inc()
		l.corruptions++
		return
	}
	l.cells = lf.Cells
	if l.cells == nil {
		l.cells = map[string]json.RawMessage{}
	}
}

// Lookup returns the journaled result for a cell key. It only ever hits
// when the ledger was opened with Resume; a journal-only ledger records
// without serving, so the flag cleanly separates "protect this run" from
// "trust a previous one". Nil-safe.
func (l *Ledger) Lookup(key string) ([]byte, bool) {
	if l == nil || !l.resume {
		return nil, false
	}
	l.mu.Lock()
	v, ok := l.cells[key]
	if l.closed {
		ok = false
	}
	l.mu.Unlock()
	if !ok {
		l.ctr.misses.Inc()
		return nil, false
	}
	l.ctr.hits.Inc()
	return v, true
}

// Close retires the ledger: subsequent Lookups miss and Records no-op,
// so a cancellation racing teardown cannot journal into a ledger the run
// has already flushed. The ledger holds no persistent file handle (every
// write opens, writes, and renames its own temp file), so Close releases
// no descriptors — it exists to make the lifecycle explicit and the
// no-use-after-close property testable. Idempotent, nil-safe.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Record journals one completed cell and atomically rewrites the ledger
// file. A failed write disables further journaling for the run (the grid
// result still stands; only resumability is lost) and is counted in
// checkpoint.errors; cells are still kept in memory, so a memoizing
// ledger goes on serving repeats. Nil-safe.
func (l *Ledger) Record(key string, value []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recordLocked(key, value)
}

// recordLocked is Record under l.mu.
func (l *Ledger) recordLocked(key string, value []byte) {
	if l.closed {
		return
	}
	l.cells[key] = json.RawMessage(value)
	if l.dir == "" || l.disabled {
		return // memory-only, or journaling stopped: nothing to write
	}
	if err := l.writeLocked(); err != nil {
		// Journaling never resumes, so the cells map is never persisted
		// again and may keep the cell this write failed to confirm.
		l.disabled = true
		l.ctr.errors.Inc()
		return
	}
	l.ctr.writes.Inc()
}

// writeLocked rewrites the ledger file under l.mu.
func (l *Ledger) writeLocked() error {
	if err := l.fsys.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	sum, err := cellsSum(l.cells)
	if err != nil {
		return err
	}
	// Compact encoding: MarshalIndent would re-indent the RawMessage cell
	// payloads, breaking the byte-exact round-trip resume depends on.
	lf := ledgerFile{Format: Format, Fingerprint: l.fingerprint, Cells: l.cells, Sum: sum}
	b, err := json.Marshal(lf)
	if err != nil {
		return err
	}
	_, err = faultinject.WriteAtomic(l.fsys, l.path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
	return err
}

// Len returns the number of journaled cells. Nil-safe.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cells)
}

// Path returns the ledger file path ("" for a nil ledger).
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Corruptions returns how many corrupt ledger states were detected (and
// degraded past) — independent of any metrics registry, so the CLI can
// report a distinct exit status without -metrics. Nil-safe.
func (l *Ledger) Corruptions() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.corruptions
}

// Stale reports whether a structurally-valid ledger with the wrong
// fingerprint or format was discarded at Open. Nil-safe.
func (l *Ledger) Stale() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.staleHits > 0
}

// WriteFailed reports whether journaling was disabled by a write failure.
// Nil-safe.
func (l *Ledger) WriteFailed() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.disabled
}

// call is one in-flight computation, shared by every caller that asked
// for its key while it ran.
type call struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Do implements runner.Checkpoint. It returns key's value from the
// ledger (SourceCached; only a ledger opened with Resume serves), else
// joins the computation of key already in flight (SourceCoalesced),
// else runs compute (SourceComputed) and records its result. Errors are
// never recorded, so a failed cell stays retryable.
//
// compute runs on a goroutine of its own, under a context that stays
// live while at least one caller still waits: a caller whose ctx expires
// gets ctx.Err() and departs, and the last departure cancels compute.
// Work that completes after its callers left is still recorded, so a
// retry finds it. A panic in compute reaches every waiter as an error.
// A nil ledger runs compute inline.
func (l *Ledger) Do(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, runner.Source, error) {
	if l == nil {
		v, err := compute(ctx)
		return v, runner.SourceComputed, err
	}
	if err := ctx.Err(); err != nil {
		return nil, runner.SourceComputed, err
	}
	l.mu.Lock()
	if l.resume && !l.closed {
		if v, ok := l.cells[key]; ok {
			l.mu.Unlock()
			l.ctr.hits.Inc()
			return v, runner.SourceCached, nil
		}
		l.ctr.misses.Inc()
	}
	if c, ok := l.flight[key]; ok {
		c.waiters++
		l.mu.Unlock()
		return l.wait(ctx, c, runner.SourceCoalesced)
	}
	// First caller for this key: the compute context belongs to the
	// waiter set, not to this caller alone — a coalesced waiter must not
	// fail because the caller that happened to arrive first left.
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	l.flight[key] = c
	l.mu.Unlock()

	go func() {
		defer close(c.done)
		v, err := guarded(cctx, key, compute)
		cancel()
		l.mu.Lock()
		defer l.mu.Unlock()
		c.val, c.err = v, err
		if err == nil {
			l.recordLocked(key, v)
		}
		delete(l.flight, key)
	}()
	return l.wait(ctx, c, runner.SourceComputed)
}

// guarded runs compute, turning a panic into an error: compute runs on
// Do's own goroutine, where an unrecovered panic would end the process.
func guarded(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (v []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("checkpoint: computing %q panicked: %v", key, r)
		}
	}()
	return compute(ctx)
}

// wait blocks until c completes or ctx expires. The departing waiter
// decrements the refcount; the last one out cancels the compute context.
// Cancelling after a normal completion is a no-op.
func (l *Ledger) wait(ctx context.Context, c *call, src runner.Source) ([]byte, runner.Source, error) {
	var v []byte
	var err error
	select {
	case <-c.done:
		v, err = c.val, c.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	l.mu.Lock()
	c.waiters--
	last := c.waiters <= 0
	l.mu.Unlock()
	if last {
		c.cancel()
	}
	return v, src, err
}

// Inflight returns how many callers are waiting on key's computation (0
// when none is running). Tests gate deterministic coalescing assertions
// on it. Nil-safe.
func (l *Ledger) Inflight(key string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.flight[key]; ok {
		return c.waiters
	}
	return 0
}
