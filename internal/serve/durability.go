package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"slidingsample/internal/snap"
	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
)

// Serving durability (DESIGN.md §10): an instance snapshot is the serve
// layer's admission state (event count, stream clock) followed by the
// substrate's own spec-headed snapshot, and a WAL is the existing NDJSON
// ingest wire format — one Record line per admitted element, appended in
// admission order before the batch is acknowledged. Recovery restores the
// latest snapshot and replays the WAL records the snapshot does not cover
// through the ordinary ingest path, so a recovered instance resumes
// bit-identically to one that admitted the same stream and served no
// randomness-drawing queries between the snapshot cut and the crash.

// kindServeInstance heads a serving-layer instance snapshot.
const kindServeInstance = "serve.Instance"

// instanceHeader is the serve layer's own snapshot body: the admission
// counters and the stream clock. The substrate's snapshot follows it.
type instanceHeader struct {
	events  uint64 // elements admitted
	walSkip uint64 // WAL records the snapshot covers
	last    int64
	begun   bool
}

func encodeInstanceHeader(w *snap.Writer, h instanceHeader) {
	w.U64(h.events)
	w.U64(h.walSkip)
	w.I64(h.last)
	w.Bool(h.begun)
}

func decodeInstanceHeader(r *snap.Reader) instanceHeader {
	h := instanceHeader{events: r.U64(), walSkip: r.U64(), last: r.I64(), begun: r.Bool()}
	if r.Err() == nil && h.walSkip > h.events {
		r.Failf("serve: snapshot covers %d wal records but admitted only %d events", h.walSkip, h.events)
	}
	return h
}

// maxSnapshotBytes bounds a POST /restore body. Snapshots are k-sized, not
// window-sized, for every substrate but the fullwindow baseline; this cap
// comfortably covers the serving cap on that ring too.
const maxSnapshotBytes = 1 << 30

// Snapshot writes the instance's full state to w: the admission counters
// and stream clock, then the substrate's spec-headed snapshot. The cut is
// consistent — everything admitted before the cut is applied (staged
// prefix drained, sharded ingest barriered) and everything admitted after
// stays in the staging queue and the WAL.
func (in *Instance) Snapshot(w io.Writer) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	// One qmu section fixes the cut: the staged prefix is dequeued and the
	// admission counters are read atomically with it. Batches admitted
	// after this point cannot be applied until we release mu, so the
	// substrate below reflects exactly the first `events` elements.
	in.qmu.Lock()
	batches := in.queue
	in.queue = nil
	in.queuedEvents = 0
	h := instanceHeader{events: in.events, walSkip: in.events - in.walBase, last: in.last, begun: in.begun}
	in.qmu.Unlock()
	in.applyLocked(batches)
	if in.barrier != nil {
		in.barrier()
	}
	if err := snap.Save(w, kindServeInstance, h, encodeInstanceHeader); err != nil {
		return err
	}
	return substrate.Snapshot(w, in.spec, in.built)
}

// RestoreInstance reads an instance snapshot written by Snapshot and
// rebuilds the instance mid-stream, applier goroutine included. The second
// return is the number of WAL records the snapshot already covers — the
// caller skips that many lines when replaying the instance's WAL.
func RestoreInstance(r io.Reader) (*Instance, uint64, error) {
	h, err := snap.Restore(r, kindServeInstance, decodeInstanceHeader)
	if err != nil {
		return nil, 0, err
	}
	// The serving caps vet the spec before its body is read, so an over-cap
	// snapshot allocates nothing and starts no shard worker.
	spec, built, err := substrate.Restore(r, validateServable)
	if err != nil {
		return nil, 0, err
	}
	c, err := restoredCaps(h, built)
	if err != nil {
		if cl, ok := built.(interface{ Close() }); ok {
			cl.Close()
		}
		return nil, 0, err
	}
	inst := newInstance(spec, built, c)
	inst.qmu.Lock()
	inst.events, inst.last, inst.begun = h.events, h.last, h.begun
	inst.qmu.Unlock()
	return inst, h.walSkip, nil
}

// restoredCaps wires a restored substrate's capabilities and refuses one
// the serve header does not describe.
func restoredCaps(h instanceHeader, built any) (caps, error) {
	if _, ok := built.(ingester); !ok {
		return caps{}, snap.Errorf("serve: restored substrate %T is not servable", built)
	}
	c := wireCaps(built)
	// Every admitted element was applied before the snapshot cut, so the
	// substrate's own count must match the admission counter exactly; a
	// mismatch means a spliced snapshot.
	if n := c.ing.Count(); n != h.events {
		return caps{}, snap.Errorf("serve: snapshot admitted %d events but the substrate counted %d", h.events, n)
	}
	// Every time a substrate sees, arrival or clock-advancing query, is
	// admitted through the serve clock first, so a substrate clock ahead of
	// it is a spliced snapshot: the serve clock would admit an arrival the
	// substrate panics on.
	if c.clock != nil {
		if now, started := c.clock(); started && (!h.begun || now > h.last) {
			return caps{}, snap.Errorf("serve: substrate clock %d is ahead of the serve clock %d (begun %v)", now, h.last, h.begun)
		}
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

// walStore is the file under a WAL: *os.File, or a write-failing wrapper
// in tests.
type walStore interface {
	io.Writer
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Sync() error
}

// walFile is one instance's append-only ingest log. Appends happen under
// the instance's admission lock (qmu), so the log order is the admission
// order; that lock also guards off and broken.
type walFile struct {
	f      walStore
	off    int64 // end of the last batch written in full
	broken error // set once a failed append could not be rolled back
}

// append writes one batch's records at the end of the log. A failed or
// short write is rolled back to the end of the previous batch, so the log
// never keeps part of a rejected batch for the next append to land behind.
// If the rollback fails too, the log cannot be trusted any more and every
// later append fails as well: the instance fails closed for ingest.
func (w *walFile) append(buf []byte) error {
	if w.broken != nil {
		return w.broken
	}
	n, err := w.f.Write(buf)
	if err == nil {
		w.off += int64(n)
		return nil
	}
	if rerr := w.rollback(); rerr != nil {
		w.broken = fmt.Errorf("%w: %v; rollback failed, ingest disabled: %v", ErrWALWrite, err, rerr)
		return w.broken
	}
	return fmt.Errorf("%w: %v", ErrWALWrite, err)
}

// rollback cuts the log back to the end of the last good batch.
func (w *walFile) rollback() error {
	if err := w.f.Truncate(w.off); err != nil {
		return err
	}
	_, err := w.f.Seek(w.off, io.SeekStart)
	return err
}

func (w *walFile) sync() error { return w.f.Sync() }

// ---------------------------------------------------------------------------
// State directory
// ---------------------------------------------------------------------------

// StateDir is a directory of per-instance durability state: <name>.snap is
// the latest snapshot (written atomically via rename) and <name>.wal is
// the NDJSON ingest log since that WAL file was created. Fabric tenants
// are not persisted — a million thin tenants are cheap to refill from
// their upstream, and per-tenant WAL fds would defeat the fabric's whole
// memory design.
type StateDir struct {
	dir string

	// mu guards the durable set and serializes file writes (two concurrent
	// SnapshotAll calls must not race on the same temp file).
	mu      sync.Mutex
	durable map[string]*Instance
}

// OpenStateDir creates the directory if needed and returns the handle.
func OpenStateDir(dir string) (*StateDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	return &StateDir{dir: dir, durable: make(map[string]*Instance)}, nil
}

func (sd *StateDir) snapPath(name string) string { return filepath.Join(sd.dir, name+".snap") }
func (sd *StateDir) walPath(name string) string  { return filepath.Join(sd.dir, name+".wal") }

// Enable makes an instance durable: a fresh (truncated) WAL starts at the
// instance's current admission count, and an initial snapshot of the
// current state is written — so the invariant "snapshot + uncovered WAL
// records = full state" holds from the first acknowledged batch on. Call
// it before the instance is published to a registry; the WAL hook is read
// lock-free by the ingest paths.
func (sd *StateDir) Enable(name string, in *Instance) error {
	f, err := os.OpenFile(sd.walPath(name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal create: %w", err)
	}
	in.wal = &walFile{f: f}
	in.qmu.Lock()
	in.walBase = in.events
	in.qmu.Unlock()
	if err := sd.WriteSnapshot(name, in); err != nil {
		return err
	}
	sd.mu.Lock()
	sd.durable[name] = in
	sd.mu.Unlock()
	return nil
}

// WriteSnapshot snapshots the instance into <name>.snap via a temp file
// and an atomic rename, fsyncing before the swap — a crash mid-write
// leaves the previous snapshot intact.
func (sd *StateDir) WriteSnapshot(name string, in *Instance) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	var buf bytes.Buffer
	if err := in.Snapshot(&buf); err != nil {
		return err
	}
	return sd.writeSnapBytesLocked(name, buf.Bytes())
}

// writeSnapBytes persists already-captured snapshot bytes (the /snapshot
// endpoint streams the same bytes to the client).
func (sd *StateDir) writeSnapBytes(name string, b []byte) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.writeSnapBytesLocked(name, b)
}

func (sd *StateDir) writeSnapBytesLocked(name string, b []byte) error {
	tmp := sd.snapPath(name) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	_, werr := f.Write(b)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot write: %w", werr)
	}
	if err := os.Rename(tmp, sd.snapPath(name)); err != nil {
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	return nil
}

// has reports whether the instance under name is durable in this dir.
func (sd *StateDir) has(name string) bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	_, ok := sd.durable[name]
	return ok
}

// SnapshotAll writes a fresh snapshot for every durable instance and
// fsyncs every WAL, returning the first error after attempting all.
func (sd *StateDir) SnapshotAll() error {
	names := func() []string {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		ns := make([]string, 0, len(sd.durable))
		for name := range sd.durable {
			ns = append(ns, name)
		}
		return ns
	}()
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		in := func() *Instance {
			sd.mu.Lock()
			defer sd.mu.Unlock()
			return sd.durable[name]
		}()
		if in == nil {
			continue
		}
		if err := in.wal.sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: wal sync %q: %w", name, err)
		}
		if err := sd.WriteSnapshot(name, in); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: snapshot %q: %w", name, err)
		}
	}
	return firstErr
}

// Recover restores every <name>.snap in the directory, replays each WAL
// tail, compacts (fresh snapshot, truncated WAL), and adopts the
// recovered instances into the registry. It runs single-threaded at
// startup, before the registry serves traffic.
func (sd *StateDir) Recover(s *Server) ([]string, error) {
	entries, err := os.ReadDir(sd.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".snap")
		inst, err := sd.recoverOne(name)
		if err != nil {
			return names, fmt.Errorf("serve: recover %q: %w", name, err)
		}
		// Compaction is Enable: a fresh WAL and a snapshot of the caught-up
		// state, so WAL growth is bounded per process lifetime.
		if err := s.adopt(name, inst, sd); err != nil {
			inst.Close()
			return names, fmt.Errorf("serve: recover %q: %w", name, err)
		}
		names = append(names, name)
	}
	return names, nil
}

// recoverOne rebuilds one instance: restore the snapshot, then replay the
// WAL records it does not cover.
func (sd *StateDir) recoverOne(name string) (*Instance, error) {
	f, err := os.Open(sd.snapPath(name))
	if err != nil {
		return nil, err
	}
	inst, walSkip, err := RestoreInstance(bufio.NewReader(f))
	_ = f.Close()
	if err != nil {
		return nil, err
	}
	if err := sd.replayWAL(inst, name, walSkip); err != nil {
		inst.Close()
		return nil, err
	}
	return inst, nil
}

// replayWAL feeds the WAL records after the first skip through the
// ordinary ingest path, in runs (walRun). A torn FINAL record — the crash
// interrupting an append — is tolerated (that batch was never
// acknowledged); a corrupt record anywhere else is an error.
func (sd *StateDir) replayWAL(in *Instance, name string, skip uint64) error {
	f, err := os.Open(sd.walPath(name))
	if errors.Is(err, os.ErrNotExist) {
		if skip != 0 {
			return fmt.Errorf("serve: snapshot covers %d wal records but %q has no wal", skip, name)
		}
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, initialNDJSONBufBytes), maxNDJSONLineBytes)
	var n uint64
	var run walRun
	var torn error
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if torn != nil {
			return fmt.Errorf("serve: corrupt wal record %d for %q: %v", n, name, torn)
		}
		n++
		rec, err := decodeWALRecord(raw)
		if err != nil {
			if n <= skip {
				return fmt.Errorf("serve: corrupt wal record %d for %q (covered by the snapshot): %v", n, name, err)
			}
			torn = err
			continue
		}
		if n <= skip {
			continue
		}
		if !run.fits(rec) {
			if err := run.replay(in, name); err != nil {
				return err
			}
			run = walRun{}
		}
		run.add(rec, n)
	}
	if err := run.replay(in, name); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: wal read %q: %w", name, err)
	}
	if n < skip {
		return fmt.Errorf("serve: wal for %q has %d records but the snapshot covers %d", name, n, skip)
	}
	return nil
}

// walRun is a run of consecutive WAL records that agree on ts and weight
// presence, replayed as one ingest batch of at most stream.MaxRecycledCap
// records. ObserveBatch is sample-path identical to looping Observe
// (DESIGN.md §3), so where a replay cuts its batches changes nothing in the
// recovered state; it only saves the per-batch admission cost.
type walRun struct {
	values      []string
	tss         []int64
	ws          []float64
	hasTS, hasW bool
	first       uint64 // WAL record number of values[0]
}

// fits reports whether rec can extend the run.
func (r *walRun) fits(rec wireRecord) bool {
	return len(r.values) == 0 ||
		len(r.values) < stream.MaxRecycledCap && rec.hasTS == r.hasTS && rec.hasW == r.hasW
}

func (r *walRun) add(rec wireRecord, n uint64) {
	if len(r.values) == 0 {
		r.hasTS, r.hasW, r.first = rec.hasTS, rec.hasW, n
	}
	r.values = append(r.values, rec.value)
	if rec.hasTS {
		r.tss = append(r.tss, rec.ts)
	}
	if rec.hasW {
		r.ws = append(r.ws, rec.weight)
	}
}

// replay ingests the run, waiting out transient staging backpressure (the
// applier drains concurrently during replay). The staged batch keeps the
// weights slice, so a run's slices are never reused for the next run.
func (r *walRun) replay(in *Instance, name string) error {
	if len(r.values) == 0 {
		return nil
	}
	for {
		_, err := in.Ingest(r.values, r.tss, r.ws)
		if errors.Is(err, ErrOverloaded) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			last := r.first + uint64(len(r.values)) - 1
			return fmt.Errorf("serve: wal replay records %d-%d for %q: %w", r.first, last, name, err)
		}
		return nil
	}
}
