package serve

// Restore hardening battery: arbitrary, truncated, corrupted, and
// version-bumped snapshot bytes must make RestoreInstance return an
// error — never panic, never hang, never leak a dispatcher goroutine (the
// truncation and corruption sweeps count goroutines before and after).
// The seed corpus is a set of REAL snapshots (one per registrable
// substrate, fixed seeds) so the fuzzer starts inside every kind's format
// and mutates outward. Run the corpus with plain `go test`, or explore:
//
//	go test -fuzz FuzzRestoreInstance ./internal/serve/
//
// A successful restore of mutated bytes is fine (e.g. a flipped bit
// inside an RNG word is just a different valid snapshot); the property
// is that whatever comes back is a working instance that closes cleanly.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"slidingsample/internal/snap"
	"slidingsample/internal/substrate"
)

// fuzzSpecs has one row per registrable substrate (substrateSweep), each
// with a fixed seed, so every snapshot kind the /restore endpoint reaches
// has a golden fixture and a fuzz seed.
func fuzzSpecs() []Spec {
	return []Spec{
		{Mode: "seq", Sampler: "wor", N: 64, K: 4, Seed: 11},
		{Mode: "seq", Sampler: "wr", N: 64, K: 3, Seed: 18},
		{Mode: "seq", Sampler: "chain", N: 64, K: 3, Seed: 12},
		{Mode: "seq", Sampler: "oversample", N: 64, K: 3, Seed: 19},
		{Mode: "seq", Sampler: "fullwindow", N: 64, K: 3, Seed: 20},
		{Mode: "seq", Sampler: "sharded-wr", N: 64, K: 3, G: 4, Seed: 21},
		{Mode: "seq", Sampler: "weighted-wor", N: 64, K: 3, Seed: 22},
		{Mode: "seq", Sampler: "weighted-wr", N: 64, K: 3, Seed: 13},
		{Mode: "seq", Sampler: "sharded-weighted-wor", N: 64, K: 3, G: 4, Seed: 23},
		{Mode: "seq", Sampler: "sharded-weighted-wr", N: 64, K: 3, G: 4, Seed: 24},
		{Mode: "seq", Sampler: "subsetsum", N: 64, K: 8, Seed: 25},
		{Mode: "ts", Sampler: "wor", T0: 16, K: 3, Seed: 14},
		{Mode: "ts", Sampler: "wr", T0: 16, K: 3, Seed: 26},
		{Mode: "ts", Sampler: "priority", T0: 16, K: 3, Seed: 27},
		{Mode: "ts", Sampler: "skyband", T0: 16, K: 3, Seed: 28},
		{Mode: "ts", Sampler: "fullwindow", T0: 16, K: 3, Seed: 15},
		{Mode: "ts", Sampler: "sharded-wr", T0: 16, K: 3, G: 4, Seed: 29},
		{Mode: "ts", Sampler: "sharded-wor", T0: 16, K: 3, G: 4, Seed: 30},
		{Mode: "ts", Sampler: "weighted-ts-wor", T0: 16, K: 3, Seed: 31},
		{Mode: "ts", Sampler: "weighted-ts-wr", T0: 16, K: 3, Seed: 32},
		{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 16, K: 3, G: 4, Seed: 16},
		{Mode: "ts", Sampler: "sharded-weighted-ts-wr", T0: 16, K: 3, G: 4, Seed: 33},
		{Mode: "ts", Sampler: "subsetsum-ts", T0: 16, K: 8, Seed: 17},
		{Mode: "ts", Sampler: "sharded-subsetsum-ts", T0: 16, K: 8, G: 4, Seed: 34},
	}
}

// TestFuzzSpecsCoverEverySubstrate keeps fuzzSpecs in step with the
// registration sweep: a substrate added to one must be added to the other.
func TestFuzzSpecsCoverEverySubstrate(t *testing.T) {
	have := make(map[string]bool)
	for _, spec := range fuzzSpecs() {
		have[spec.Mode+"/"+spec.Sampler] = true
	}
	for _, row := range substrateSweep {
		if !have[row.mode+"/"+row.sampler] {
			t.Errorf("fuzzSpecs has no row for %s/%s", row.mode, row.sampler)
		}
	}
	if len(have) != len(substrateSweep) {
		t.Errorf("fuzzSpecs has %d distinct rows, substrateSweep %d", len(have), len(substrateSweep))
	}
}

// seedBatch builds the deterministic element batch [start, start+count):
// distinct values with a second whitespace field (so every weight
// selector has something to chew on) and a half-rate timestamp clock.
func seedBatch(spec Spec, start, count int) (values []string, timestamps []int64) {
	values = make([]string, count)
	if spec.Mode == "ts" {
		timestamps = make([]int64, count)
	}
	for i := range values {
		values[i] = fmt.Sprintf("v%03d extra", start+i)
		if timestamps != nil {
			timestamps[i] = int64((start + i) / 2)
		}
	}
	return values, timestamps
}

// seedIngest pushes the deterministic batch [start, start+count) into inst.
func seedIngest(t testing.TB, inst *Instance, start, count int) {
	t.Helper()
	values, timestamps := seedBatch(inst.Spec(), start, count)
	if _, err := inst.Ingest(values, timestamps, nil); err != nil {
		spec := inst.Spec()
		t.Fatalf("Ingest(%s/%s): %v", spec.Mode, spec.Sampler, err)
	}
}

// seedEvents is the ingest prefix captured by seedSnapshot and the
// golden fixtures.
const seedEvents = 48

// seedSnapshot registers spec on a throwaway server, ingests the fixed
// prefix, and returns the instance's snapshot bytes.
func seedSnapshot(t testing.TB, spec Spec) []byte {
	t.Helper()
	s := NewServer()
	defer s.Close()
	inst, err := s.Register("seed", spec)
	if err != nil {
		t.Fatalf("Register(%s/%s): %v", spec.Mode, spec.Sampler, err)
	}
	seedIngest(t, inst, 0, seedEvents)
	var buf bytes.Buffer
	if err := inst.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot(%s/%s): %v", spec.Mode, spec.Sampler, err)
	}
	return buf.Bytes()
}

// tryRestore feeds data to RestoreInstance and, when it succeeds, proves
// the instance is live: three arrivals at the restored serve clock (with
// weights when the substrate takes them), one query, then close. A
// semi-corrupt snapshot that slips past validation still has to produce a
// working sampler, so a decoder that admits a state its Observe cannot
// reach fails the sweep (with a panic, as it would kill a live applier).
func tryRestore(t *testing.T, data []byte) {
	t.Helper()
	inst, _, err := RestoreInstance(bytes.NewReader(data))
	if err != nil {
		if inst != nil {
			t.Fatalf("RestoreInstance returned both an instance and error %v", err)
		}
		return
	}
	defer inst.Close()
	if _, k, _, _ := inst.Stats(); k <= 0 {
		t.Fatalf("restored instance reports k=%d", k)
	}
	var timestamps []int64
	if !inst.seqMode() {
		timestamps = []int64{inst.last, inst.last, inst.last}
	}
	var weights []float64
	if inst.weighted != nil {
		weights = []float64{1, 2, 3}
	}
	if _, err := inst.Ingest([]string{"a 1", "b 22", "c 333"}, timestamps, weights); err != nil {
		t.Fatalf("ingest at the restored clock %d: %v", inst.last, err)
	}
	if inst.plain != nil {
		_, _, err = inst.Sample(nil)
	} else {
		_, _, err = inst.SubsetSum(nil, func(string) bool { return true })
	}
	if err != nil {
		t.Fatalf("query after restore and ingest: %v", err)
	}
}

func FuzzRestoreInstance(f *testing.F) {
	for _, spec := range fuzzSpecs() {
		f.Add(seedSnapshot(f, spec))
	}
	f.Add([]byte{})
	f.Add([]byte("SWS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		tryRestore(t, data)
	})
}

// awaitGoroutines waits, for at most five seconds, until no more
// goroutines run than base, and fails the test if some never exit: every
// restore in a sweep is refused or closed, so each shard worker and
// applier it started must stop.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 500 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines still running after the sweep, %d before it", n, base)
	}
}

// TestRestoreTruncated checks that every strict prefix of a valid
// snapshot errors: the codec reads exactly what the encoder wrote, so a
// byte missing anywhere must surface before the instance is built.
func TestRestoreTruncated(t *testing.T) {
	for _, spec := range fuzzSpecs() {
		t.Run(spec.Mode+"/"+spec.Sampler, func(t *testing.T) {
			base := runtime.NumGoroutine()
			defer awaitGoroutines(t, base)
			data := seedSnapshot(t, spec)
			step := 1
			if len(data) > 2048 {
				step = len(data) / 2048
			}
			for cut := 0; cut < len(data); cut += step {
				inst, _, err := RestoreInstance(bytes.NewReader(data[:cut]))
				if err == nil {
					inst.Close()
					t.Fatalf("restore of %d/%d-byte prefix succeeded", cut, len(data))
				}
			}
		})
	}
}

// TestRestoreCorrupted flips one byte at a time across the snapshot. A
// flip may land in RNG state and still restore (a different valid
// snapshot) — the invariant is no panic and a closeable result.
func TestRestoreCorrupted(t *testing.T) {
	for _, spec := range fuzzSpecs() {
		t.Run(spec.Mode+"/"+spec.Sampler, func(t *testing.T) {
			base := runtime.NumGoroutine()
			defer awaitGoroutines(t, base)
			data := seedSnapshot(t, spec)
			step := 1
			if len(data) > 2048 {
				step = len(data) / 2048
			}
			for i := 0; i < len(data); i += step {
				mut := bytes.Clone(data)
				mut[i] ^= 0xFF
				tryRestore(t, mut)
			}
		})
	}
}

// TestRestoreVersionBump checks a future-versioned snapshot is rejected
// loudly with ErrFormat (offset 4 is the little-endian u16 version).
func TestRestoreVersionBump(t *testing.T) {
	data := seedSnapshot(t, fuzzSpecs()[0])
	data[4], data[5] = 0xFE, 0xCA
	inst, _, err := RestoreInstance(bytes.NewReader(data))
	if err == nil {
		inst.Close()
		t.Fatal("restore of version-bumped snapshot succeeded")
	}
	if !errors.Is(err, snap.ErrFormat) {
		t.Fatalf("version bump error = %v, want snap.ErrFormat", err)
	}
}

// TestRestoreKindMismatch feeds a snapshot whose kind tag was rewritten;
// the header check must refuse before any body decoding happens.
func TestRestoreKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := snap.Save(&buf, "serve.SomethingElse", 0, (*snap.Writer).U64); err != nil {
		t.Fatal(err)
	}
	inst, _, err := RestoreInstance(bytes.NewReader(buf.Bytes()))
	if err == nil {
		inst.Close()
		t.Fatal("restore of wrong-kind snapshot succeeded")
	}
	if !errors.Is(err, snap.ErrFormat) {
		t.Fatalf("kind mismatch error = %v, want snap.ErrFormat", err)
	}
}

// noBody stands in for a substrate whose snapshot body is missing.
type noBody struct{}

func (noBody) Snapshot(io.Writer) error { return nil }

// TestRestoreChecksCapsBeforeBody feeds a serve header and an over-cap
// spec with no substrate body after it. The serving caps must refuse the
// spec before the body is read; a decoder that got to the body would fail
// on EOF instead, after allocating what the spec asks for (and, once the
// body is there, starting G shard workers).
func TestRestoreChecksCapsBeforeBody(t *testing.T) {
	for _, spec := range []Spec{
		{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 16, K: 4096, G: 128, Seed: 1},
		{Mode: "seq", Sampler: "wor", N: 64, K: MaxK + 1, Seed: 1},
		{Mode: "ts", Sampler: "sharded-wr", T0: 16, K: 1, G: MaxG + 1, Seed: 1},
		{Mode: "seq", Sampler: "fullwindow", N: MaxFullWindowN + 1, K: 1, Seed: 1},
	} {
		capErr := validateServable(spec)
		if capErr == nil {
			t.Fatalf("%+v is within the serving caps", spec)
		}
		var buf bytes.Buffer
		if err := snap.Save(&buf, kindServeInstance, instanceHeader{}, encodeInstanceHeader); err != nil {
			t.Fatal(err)
		}
		if err := substrate.Snapshot(&buf, spec, noBody{}); err != nil {
			t.Fatal(err)
		}
		inst, _, err := RestoreInstance(&buf)
		if err == nil {
			inst.Close()
			t.Fatalf("%s/%s: restore of an over-cap spec succeeded", spec.Mode, spec.Sampler)
		}
		if !errors.Is(err, snap.ErrFormat) || !strings.Contains(err.Error(), capErr.Error()) {
			t.Errorf("%s/%s: restore error %q, want the cap error %q", spec.Mode, spec.Sampler, err, capErr)
		}
	}
}

// TestRestoreRefusesServeClockBehind rewrites the serve header of a real
// snapshot of every timestamp substrate so that its stream clock is behind
// the substrate's: lowered by 10, or never started. The serve layer would
// then admit arrivals earlier than the substrate has seen, which most
// substrates panic on (in the applier or a shard worker, so the process
// dies) and the baselines silently take out of order. Restore must refuse.
func TestRestoreRefusesServeClockBehind(t *testing.T) {
	for _, spec := range fuzzSpecs() {
		if spec.Mode != "ts" {
			continue
		}
		t.Run(spec.Sampler, func(t *testing.T) {
			data := seedSnapshot(t, spec)
			for _, tc := range []struct {
				name  string
				lower func(h *instanceHeader)
			}{
				{"last-10", func(h *instanceHeader) { h.last -= 10 }},
				{"unbegun", func(h *instanceHeader) { h.begun = false }},
			} {
				r := bytes.NewReader(data)
				h, err := snap.Restore(r, kindServeInstance, decodeInstanceHeader)
				if err != nil {
					t.Fatal(err)
				}
				tc.lower(&h)
				var buf bytes.Buffer
				if err := snap.Save(&buf, kindServeInstance, h, encodeInstanceHeader); err != nil {
					t.Fatal(err)
				}
				buf.Write(data[len(data)-r.Len():])
				inst, _, err := RestoreInstance(&buf)
				if err == nil {
					inst.Close()
					t.Fatalf("%s: restore with the serve clock behind the substrate's succeeded", tc.name)
				}
				if !errors.Is(err, snap.ErrFormat) {
					t.Fatalf("%s: restore error = %v, want snap.ErrFormat", tc.name, err)
				}
			}
		})
	}
}
