package slidingsample

// restore_conformance_test.go: the checkpoint/restore half of the shared
// battery (DESIGN.md §10). Every substrate row must satisfy the
// bit-identical-resume contract:
//
//   - snapshot → restore preserves Count, K and the retained sample state;
//   - a restored sampler and its uninterrupted twin produce byte-identical
//     transcripts under identical interleaved ingest and queries — samples,
//     ok flags, Count, Words and MaxWords all agree at every step;
//   - re-snapshotting both twins after the resume yields byte-identical
//     snapshots (the codec is deterministic over identical state).
//
// Words() on the sharded substrates counts lazily warmed per-shard caches,
// so each comparison round queries (which warms both twins identically)
// before comparing the footprint — the same ordering any client that cares
// about footprint parity across a restore would observe.

import (
	"bytes"
	"io"
	"testing"

	"slidingsample/internal/apps"
	"slidingsample/internal/baseline"
	"slidingsample/internal/core"
	"slidingsample/internal/parallel"
	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// snapshotter is the checkpoint surface every substrate row implements.
type snapshotter interface {
	Snapshot(w io.Writer) error
}

type restoreRow struct {
	name    string
	mk      func(r *xrand.Rand) stream.Sampler[uint64]
	restore func(r io.Reader) (stream.Sampler[uint64], error)
	mayFail bool // the over-sampling baseline's documented failure mode
}

// restoreRows mirrors confSubstrates minus apps/StepBiased, which is not
// in the substrate vocabulary and has no snapshot codec.
func restoreRows() []restoreRow {
	return []restoreRow{
		{name: "core/SeqWR",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewSeqWR[uint64](r, confN, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return core.RestoreSeqWR[uint64](r) }},
		{name: "core/SeqWOR",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewSeqWOR[uint64](r, confN, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return core.RestoreSeqWOR[uint64](r) }},
		{name: "core/TSWR",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewTSWR[uint64](r, confT0, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return core.RestoreTSWR[uint64](r) }},
		{name: "core/TSWOR",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewTSWOR[uint64](r, confT0, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return core.RestoreTSWOR[uint64](r) }},
		{name: "baseline/Chain",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewChain[uint64](r, confN, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestoreChain[uint64](r) }},
		{name: "baseline/Oversample", mayFail: true,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return baseline.NewOversample[uint64](r, confN, confK, 2)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestoreOversample[uint64](r) }},
		{name: "baseline/Priority",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewPriority[uint64](r, confT0, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestorePriority[uint64](r) }},
		{name: "baseline/Skyband",
			mk:      func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewSkyband[uint64](r, confT0, confK) },
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestoreSkyband[uint64](r) }},
		{name: "baseline/FullWindow(seq)",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return baseline.NewFullWindowSeq[uint64](r, confN).Bind(confK, true)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestoreFullWindow[uint64](r) }},
		{name: "baseline/FullWindow(ts)",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return baseline.NewFullWindowTS[uint64](r, confT0).Bind(confK, true)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return baseline.RestoreFullWindow[uint64](r) }},
		{name: "weighted/WOR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewWOR[uint64](r, confN, confK, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return weighted.RestoreWOR[uint64](r, confWeight) }},
		{name: "weighted/WR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewWR[uint64](r, confN, confK, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return weighted.RestoreWR[uint64](r, confWeight) }},
		{name: "weighted/TSWOR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewTSWOR[uint64](r, confT0, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return weighted.RestoreTSWOR[uint64](r, confWeight) }},
		{name: "weighted/TSWR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewTSWR[uint64](r, confT0, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return weighted.RestoreTSWR[uint64](r, confWeight) }},
		{name: "parallel/ShardedSeqWR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedSeqWR[uint64](r, confN, confG, confK)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return parallel.RestoreShardedSeqWR[uint64](r) }},
		{name: "parallel/ShardedTSWR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedTSWR[uint64](r, confT0, confG, confK, 0.05)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return parallel.RestoreShardedTSWR[uint64](r) }},
		{name: "parallel/ShardedTSWOR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedTSWOR[uint64](r, confT0, confG, confK, 0.05)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) { return parallel.RestoreShardedTSWOR[uint64](r) }},
		{name: "parallel/ShardedWeightedSeqWOR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedSeqWOR[uint64](r, confN, confG, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) {
				return parallel.RestoreShardedWeightedSeqWOR[uint64](r, confWeight)
			}},
		{name: "parallel/ShardedWeightedSeqWR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedSeqWR[uint64](r, confN, confG, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) {
				return parallel.RestoreShardedWeightedSeqWR[uint64](r, confWeight)
			}},
		{name: "parallel/ShardedWeightedTSWOR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedTSWOR[uint64](r, confT0, confG, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) {
				return parallel.RestoreShardedWeightedTSWOR[uint64](r, confWeight)
			}},
		{name: "parallel/ShardedWeightedTSWR",
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedTSWR[uint64](r, confT0, confG, confK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (stream.Sampler[uint64], error) {
				return parallel.RestoreShardedWeightedTSWR[uint64](r, confWeight)
			}},
	}
}

// snapshotOf snapshots any substrate into a fresh byte slice.
func snapshotOf(t *testing.T, s any) []byte {
	t.Helper()
	ss, ok := s.(snapshotter)
	if !ok {
		t.Fatalf("%T has no Snapshot method", s)
	}
	var buf bytes.Buffer
	if err := ss.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreResumeBattery ingests a prefix, snapshots mid-stream (after a
// query, so query-time RNG draws are captured too), restores, and then
// drives the original and the restored twin through identical interleaved
// ingest and queries — every observable must agree at every step.
func TestRestoreResumeBattery(t *testing.T) {
	const (
		m1     = 700 // pre-snapshot prefix
		rounds = 4
		chunk  = 150
	)
	for _, row := range restoreRows() {
		t.Run(row.name, func(t *testing.T) {
			orig := row.mk(xrand.New(20250808))
			defer confClose(orig)
			for i := 0; i < m1; i++ {
				orig.Observe(uint64(i), confTS(i))
			}
			// Query before the snapshot: queries draw randomness, and the
			// snapshot must capture the post-query RNG state.
			confSync(orig)
			_, _ = orig.Sample()

			blob := snapshotOf(t, orig)
			restored, err := row.restore(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer confClose(restored)
			if restored.Count() != orig.Count() {
				t.Fatalf("restored Count %d, want %d", restored.Count(), orig.Count())
			}
			if restored.K() != orig.K() {
				t.Fatalf("restored K %d, want %d", restored.K(), orig.K())
			}

			i := m1
			for round := 0; round < rounds; round++ {
				for j := 0; j < chunk; j++ {
					orig.Observe(uint64(i), confTS(i))
					restored.Observe(uint64(i), confTS(i))
					i++
				}
				confSync(orig)
				confSync(restored)
				oe, ook := orig.Sample()
				re, rok := restored.Sample()
				if ook != rok || len(oe) != len(re) {
					t.Fatalf("round %d: sample shape diverged: ok %v/%v len %d/%d", round, ook, rok, len(oe), len(re))
				}
				if !ook && !row.mayFail {
					t.Fatalf("round %d: no sample from non-empty window", round)
				}
				for s := range oe {
					if oe[s] != re[s] {
						t.Fatalf("round %d slot %d: %+v vs %+v", round, s, oe[s], re[s])
					}
				}
				if orig.Count() != restored.Count() {
					t.Fatalf("round %d: Count diverged: %d vs %d", round, orig.Count(), restored.Count())
				}
				// Footprint parity AFTER the queries: both twins' lazily
				// warmed query caches are now in the same state.
				if orig.Words() != restored.Words() {
					t.Fatalf("round %d: Words diverged: %d vs %d", round, orig.Words(), restored.Words())
				}
				if orig.MaxWords() != restored.MaxWords() {
					t.Fatalf("round %d: MaxWords diverged: %d vs %d", round, orig.MaxWords(), restored.MaxWords())
				}
			}

			// Identical state must re-snapshot to identical bytes.
			if !bytes.Equal(snapshotOf(t, orig), snapshotOf(t, restored)) {
				t.Fatal("post-resume snapshots diverged")
			}
		})
	}
}

// TestRestoreResumeEstimators is the estimator half: the subset-sum shells
// restore with their sketches intact and estimate identically afterwards.
func TestRestoreResumeEstimators(t *testing.T) {
	const (
		m1     = 700
		rounds = 3
		chunk  = 120
	)
	type estRow struct {
		name    string
		mk      func(r *xrand.Rand) confEstimatorAPI
		restore func(r io.Reader) (confEstimatorAPI, error)
	}
	rows := []estRow{
		{name: "apps/SubsetSum",
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewSubsetSum[uint64](r, confN, confEstK, confWeight)
			},
			restore: func(r io.Reader) (confEstimatorAPI, error) { return apps.RestoreSubsetSum[uint64](r, confWeight) }},
		{name: "apps/SubsetSumTS",
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewSubsetSumTS[uint64](r, confT0, confEstK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (confEstimatorAPI, error) { return apps.RestoreSubsetSumTS[uint64](r, confWeight) }},
		{name: "apps/ShardedSubsetSumTS",
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewShardedSubsetSumTS[uint64](r, confT0, confG, confEstK, 0.05, confWeight)
			},
			restore: func(r io.Reader) (confEstimatorAPI, error) {
				return apps.RestoreShardedSubsetSumTS[uint64](r, confWeight)
			}},
	}
	odd := func(v uint64) bool { return v%2 == 1 }
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			orig := row.mk(xrand.New(20250809))
			defer confEstClose(orig)
			for i := 0; i < m1; i++ {
				orig.Observe(uint64(i), confTS(i))
			}
			confEstSync(orig)
			_, _ = orig.Estimate(confEstAll)

			blob := snapshotOf(t, orig)
			restored, err := row.restore(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer confEstClose(restored)
			if restored.Count() != orig.Count() || restored.K() != orig.K() {
				t.Fatalf("restored Count/K %d/%d, want %d/%d",
					restored.Count(), restored.K(), orig.Count(), orig.K())
			}

			i := m1
			for round := 0; round < rounds; round++ {
				for j := 0; j < chunk; j++ {
					orig.Observe(uint64(i), confTS(i))
					restored.Observe(uint64(i), confTS(i))
					i++
				}
				confEstSync(orig)
				confEstSync(restored)
				for _, pred := range []func(uint64) bool{confEstAll, odd} {
					ov, ook := orig.Estimate(pred)
					rv, rok := restored.Estimate(pred)
					if ook != rok || ov != rv {
						t.Fatalf("round %d: estimate diverged: %g/%v vs %g/%v", round, ov, ook, rv, rok)
					}
				}
				if orig.Words() != restored.Words() || orig.MaxWords() != restored.MaxWords() {
					t.Fatalf("round %d: footprint diverged: %d/%d vs %d/%d", round,
						orig.Words(), orig.MaxWords(), restored.Words(), restored.MaxWords())
				}
			}
			if !bytes.Equal(snapshotOf(t, orig), snapshotOf(t, restored)) {
				t.Fatal("post-resume snapshots diverged")
			}
		})
	}
}

// TestPublicSnapshotResume covers the four public adapters: restored
// samplers resume the exact stream, and the timestamp adapters' monotone
// clock guard survives the round trip.
func TestPublicSnapshotResume(t *testing.T) {
	t.Run("sequence", func(t *testing.T) {
		a, _ := NewSequenceWOR[int](100, 5, WithSeed(11))
		for i := 0; i < 250; i++ {
			a.Observe(i)
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := RestoreSequenceWOR[int](&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 250; i < 400; i++ {
			a.Observe(i)
			b.Observe(i)
		}
		av, aok := a.Sample()
		bv, bok := b.Sample()
		if aok != bok || len(av) != len(bv) {
			t.Fatal("shape diverged")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
	})
	t.Run("timestamp", func(t *testing.T) {
		a, _ := NewTimestampWR[int](60, 4, WithSeed(12))
		for i := 0; i < 300; i++ {
			if err := a.Observe(i, int64(i/5)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := RestoreTimestampWR[int](&buf)
		if err != nil {
			t.Fatal(err)
		}
		// The monotone clock guard survives: a regression is refused.
		if err := b.Observe(999, 10); err != ErrTimeBackwards {
			t.Fatalf("restored clock guard: got %v", err)
		}
		for i := 300; i < 450; i++ {
			if err := a.Observe(i, int64(i/5)); err != nil {
				t.Fatal(err)
			}
			if err := b.Observe(i, int64(i/5)); err != nil {
				t.Fatal(err)
			}
		}
		av, aok := a.Sample()
		bv, bok := b.Sample()
		if aok != bok || len(av) != len(bv) {
			t.Fatal("shape diverged")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
	})
	t.Run("sequence-wr", func(t *testing.T) {
		a, _ := NewSequenceWR[string](80, 3, WithSeed(13))
		for i := 0; i < 200; i++ {
			a.Observe("v")
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := RestoreSequenceWR[string](&buf)
		if err != nil {
			t.Fatal(err)
		}
		av, _ := a.Sample()
		bv, _ := b.Sample()
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
	})
	t.Run("timestamp-wor", func(t *testing.T) {
		a, _ := NewTimestampWOR[int](30, 4, WithSeed(14))
		for i := 0; i < 200; i++ {
			if err := a.Observe(i, int64(i/3)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := RestoreTimestampWOR[int](&buf)
		if err != nil {
			t.Fatal(err)
		}
		av, aok := a.Sample()
		bv, bok := b.Sample()
		if aok != bok || len(av) != len(bv) {
			t.Fatal("shape diverged")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
	})
}

// TestPublicRestoreRefusesGuardBehind lowers a timestamp adapter's clock
// guard below its core sampler's clock before Snapshot, a state no stream
// produces: the guard would pass the next arrival at its own clock, and
// the core would panic on it instead of the adapter returning
// ErrTimeBackwards. The restore must refuse it, and an unstarted guard over
// a started core; the untouched snapshot restores.
func TestPublicRestoreRefusesGuardBehind(t *testing.T) {
	wr, _ := NewTimestampWR[int](60, 4, WithSeed(15))
	wor, _ := NewTimestampWOR[int](60, 4, WithSeed(16))
	for i := 0; i < 100; i++ {
		if wr.Observe(i, int64(i/5)) != nil || wor.Observe(i, int64(i/5)) != nil {
			t.Fatal("observe refused")
		}
	}
	for _, c := range []struct {
		name    string
		guard   *tsSampler[int]
		save    func(io.Writer) error
		restore func(io.Reader) error
	}{
		{"TimestampWR", &wr.tsSampler, wr.Snapshot, func(r io.Reader) error { _, err := RestoreTimestampWR[int](r); return err }},
		{"TimestampWOR", &wor.tsSampler, wor.Snapshot, func(r io.Reader) error { _, err := RestoreTimestampWOR[int](r); return err }},
	} {
		last := c.guard.last
		restoreWith := func(l int64, begun bool) error {
			c.guard.last, c.guard.begun = l, begun
			defer func() { c.guard.last, c.guard.begun = last, true }()
			var buf bytes.Buffer
			if err := c.save(&buf); err != nil {
				t.Fatal(err)
			}
			return c.restore(&buf)
		}
		if err := restoreWith(last, true); err != nil {
			t.Fatalf("%s untouched: %v", c.name, err)
		}
		if restoreWith(last-10, true) == nil {
			t.Errorf("%s with its guard lowered by 10 restored", c.name)
		}
		if restoreWith(last, false) == nil {
			t.Errorf("%s with an unstarted guard over a started core restored", c.name)
		}
	}
}
