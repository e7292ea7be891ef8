package serve

// WAL robustness battery (DESIGN.md §10): a restore racing ingest, a torn
// append, a failed rollback, and replay in runs. Each test ends in a crash
// and a recovery, because the WAL's only reader is recovery.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"slidingsample/internal/stream"
)

// ingestBody renders the deterministic batch [start, start+count) as a JSON
// ingest body, with explicit weights when weighted.
func ingestBody(t *testing.T, spec Spec, start, count int, weighted bool) []byte {
	t.Helper()
	values, timestamps := seedBatch(spec, start, count)
	req := IngestRequest{Values: values, Timestamps: timestamps}
	if weighted {
		for i := range values {
			req.Weights = append(req.Weights, float64((start+i)%7)+0.5)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// recoverInto recovers dir into a fresh server and returns it with the
// named instance.
func recoverInto(t *testing.T, dir, name string) (*Server, *Instance) {
	t.Helper()
	sd, err := OpenStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	t.Cleanup(s.Close)
	if _, err := sd.Recover(s); err != nil {
		t.Fatalf("recover: %v", err)
	}
	inst, ok := s.Get(name)
	if !ok {
		t.Fatalf("%q not recovered", name)
	}
	return s, inst
}

// durableServer registers spec under "d" on a server with a fresh state dir.
func durableServer(t *testing.T, spec Spec) (string, *Server, *Instance) {
	t.Helper()
	dir := t.TempDir()
	sd, err := OpenStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.SetStateDir(sd)
	inst, err := s.Register("d", spec)
	if err != nil {
		t.Fatal(err)
	}
	return dir, s, inst
}

// TestRestoreWhileIngesting posts /restore/r while another goroutine is
// already posting /ingest/r. A restored instance must be durable before any
// request can reach it: every batch acknowledged with a 200 is in the WAL,
// and recovery counts exactly the snapshot's events plus those batches.
// Attaching the WAL after publishing the instance is a data race the race
// detector reports, and can log a batch the snapshot also covers, or cover
// one the WAL never got.
func TestRestoreWhileIngesting(t *testing.T) {
	spec := Spec{Mode: "seq", Sampler: "wor", N: 64, K: 4, Seed: 41}
	snapBytes := seedSnapshot(t, spec)
	body := []byte(`{"values":["a","b","c"]}`)
	const batches = 4
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		sd, err := OpenStateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		s.SetStateDir(sd)
		restored := make(chan struct{})
		acked := make(chan uint64)
		go func() {
			var n uint64
			for ok := 0; ok < batches; {
				published := false
				select {
				case <-restored:
					published = true
				default:
				}
				rec := postIngest(s, "r", false, body)
				switch {
				case rec.Code == http.StatusOK:
					n += 3
					ok++
				case rec.Code == http.StatusNotFound && !published:
					runtime.Gosched()
				default:
					t.Errorf("ingest during restore: %d %s", rec.Code, rec.Body)
					acked <- n
					return
				}
			}
			acked <- n
		}()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/restore/r", bytes.NewReader(snapBytes)))
		close(restored)
		n := <-acked
		s.Close() // crash: no final snapshot
		if rec.Code != http.StatusCreated {
			t.Fatalf("round %d: restore: %d %s", round, rec.Code, rec.Body)
		}
		if t.Failed() {
			return
		}
		_, inst := recoverInto(t, dir, "r")
		if count, _, _, _ := inst.Stats(); count != seedEvents+n {
			t.Fatalf("round %d: recovered %d events, want %d restored + %d acknowledged", round, count, seedEvents, n)
		}
	}
}

// failingStore is a WAL store whose next failWrites writes stop halfway and
// fail — a disk filling up in the middle of an append — and whose Truncate
// fails while failTruncate is set.
type failingStore struct {
	*os.File
	failWrites   int
	failTruncate bool
}

func (f *failingStore) Write(b []byte) (int, error) {
	if f.failWrites > 0 {
		f.failWrites--
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errors.New("injected: no space left on device")
	}
	return f.File.Write(b)
}

func (f *failingStore) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected: truncate failed")
	}
	return f.File.Truncate(size)
}

// injectStore swaps a durable instance's WAL file for a failingStore. Call
// it before the instance takes any request.
func injectStore(inst *Instance) *failingStore {
	fs := &failingStore{File: inst.wal.f.(*os.File)}
	inst.wal.f = fs
	return fs
}

// TestWALTornAppendRollsBack fails one append halfway. The client gets a 500
// (its batch was fine; the server could not log it) with nothing admitted,
// the partial bytes are rolled back, and the retried batch and everything
// after it recover byte-identically to a control that never saw the fault.
func TestWALTornAppendRollsBack(t *testing.T) {
	spec := Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 16, K: 3, G: 4, Seed: 51}
	dir, victim, vinst := durableServer(t, spec)
	store := injectStore(vinst)
	control := NewServer()
	defer control.Close()
	if _, err := control.Register("d", spec); err != nil {
		t.Fatal(err)
	}

	for _, b := range []struct{ start, count int }{{0, 40}, {40, 30}, {70, 25}} {
		body := ingestBody(t, spec, b.start, b.count, b.start == 40)
		if b.start == 40 {
			store.failWrites = 1
			rec := postIngest(victim, "d", false, body)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("torn append: status %d (%s), want 500", rec.Code, rec.Body)
			}
			if count, _, _, _ := vinst.Stats(); count != 40 {
				t.Fatalf("torn append admitted: count %d, want 40", count)
			}
		}
		for _, s := range []*Server{victim, control} {
			if rec := postIngest(s, "d", false, body); rec.Code != http.StatusOK {
				t.Fatalf("ingest [%d,%d): %d %s", b.start, b.start+b.count, rec.Code, rec.Body)
			}
		}
	}
	victim.Close() // crash: no final snapshot

	revived, _ := recoverInto(t, dir, "d")
	revivedSrv := httptest.NewServer(revived)
	defer revivedSrv.Close()
	controlSrv := httptest.NewServer(control)
	defer controlSrv.Close()
	if got, want := httpTranscript(t, revivedSrv.URL, "d"), httpTranscript(t, controlSrv.URL, "d"); got != want {
		t.Fatalf("recovery after a torn append diverged:\n--- recovered\n%s--- control\n%s", got, want)
	}
}

// TestWALRollbackFailureFailsClosed fails an append AND its rollback: the
// log can no longer be trusted, so that batch and every later one answer
// 500 with nothing admitted, while queries keep answering from the
// acknowledged state.
func TestWALRollbackFailureFailsClosed(t *testing.T) {
	spec := Spec{Mode: "ts", Sampler: "weighted-ts-wor", T0: 16, K: 3, Seed: 52}
	_, s, inst := durableServer(t, spec)
	defer s.Close()
	store := injectStore(inst)
	if rec := postIngest(s, "d", false, ingestBody(t, spec, 0, 10, true)); rec.Code != http.StatusOK {
		t.Fatalf("first batch: %d %s", rec.Code, rec.Body)
	}
	store.failWrites, store.failTruncate = 1, true
	for i := 0; i < 2; i++ {
		rec := postIngest(s, "d", false, ingestBody(t, spec, 10, 10, true))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("attempt %d after a failed rollback: %d %s, want 500", i, rec.Code, rec.Body)
		}
	}
	if count, _, _, _ := inst.Stats(); count != 10 {
		t.Fatalf("count %d after refused batches, want 10", count)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sample/d", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query on a failed-closed instance: %d %s", rec.Code, rec.Body)
	}
}

// TestRecoverReplaysRuns recovers a WAL tail of 9000 records whose batches
// switch weight presence. Replay admits maximal runs of records that agree
// on ts and weight presence, at most stream.MaxRecycledCap each — four
// batches here, not 9000 — and the result answers byte-identically to a
// control that admitted the original batches.
func TestRecoverReplaysRuns(t *testing.T) {
	spec := Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 4096, K: 4, G: 4, Seed: 53}
	dir, victim, vinst := durableServer(t, spec)
	sd := victim.stateDir()
	control := NewServer()
	defer control.Close()
	if _, err := control.Register("d", spec); err != nil {
		t.Fatal(err)
	}
	const size = 1500
	for b := 0; b < 8; b++ {
		if b == 2 {
			if err := sd.SnapshotAll(); err != nil {
				t.Fatal(err)
			}
		}
		body := ingestBody(t, spec, b*size, size, b == 5)
		for _, s := range []*Server{victim, control} {
			if rec := postIngest(s, "d", false, body); rec.Code != http.StatusOK {
				t.Fatalf("batch %d: %d %s", b, rec.Code, rec.Body)
			}
		}
	}
	if count, _, _, _ := vinst.Stats(); count != 8*size {
		t.Fatalf("victim count %d", count)
	}
	victim.Close() // crash: no final snapshot

	revived, rinst := recoverInto(t, dir, "d")
	rinst.qmu.Lock()
	runs := rinst.admittedSeq
	rinst.qmu.Unlock()
	// Tail: batches 2-4 unweighted (4500 records: runs of 4096 and 404),
	// batch 5 weighted (1500), batches 6-7 unweighted (3000).
	if want := uint64(4); runs != want {
		t.Fatalf("replay admitted %d batches, want %d runs (cap %d)", runs, want, stream.MaxRecycledCap)
	}
	revivedSrv := httptest.NewServer(revived)
	defer revivedSrv.Close()
	controlSrv := httptest.NewServer(control)
	defer controlSrv.Close()
	if got, want := httpTranscript(t, revivedSrv.URL, "d"), httpTranscript(t, controlSrv.URL, "d"); got != want {
		t.Fatalf("run replay diverged:\n--- recovered\n%s--- control\n%s", got, want)
	}
}
