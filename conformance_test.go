package slidingsample

// conformance_test.go: the shared interface battery. Every sampler in the
// repository — core, baselines, sharded, step-biased — must satisfy
// stream.Sampler and behave identically under its contract:
//
//   - empty stream: Sample reports ok=false;
//   - after m arrivals: Count == m, K matches construction, samples come
//     from the active window, WOR samples are distinct, Words > 0 and
//     MaxWords >= Words;
//   - ObserveBatch(batch) is sample-path identical to looping Observe under
//     equal seeds: same samples, same Count, same Words, same MaxWords.
//
// The battery is what future substrates are tested against: add a row, get
// the whole contract checked.

import (
	"math"
	"testing"

	"slidingsample/internal/apps"
	"slidingsample/internal/baseline"
	"slidingsample/internal/core"
	"slidingsample/internal/parallel"
	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

const (
	confN  = 128 // sequence window (divisible by confG)
	confT0 = 40  // timestamp horizon
	confK  = 6
	confG  = 4
)

type confSubstrate struct {
	name string
	mk   func(r *xrand.Rand) stream.Sampler[uint64]
	// seq: sampled indexes must lie in the last min(count, confN) arrivals;
	// otherwise sampled timestamps must satisfy now - ts < confT0.
	seq bool
	// wor: sampled indexes must be distinct and len(sample) == min(k, window).
	wor bool
	// k is the expected K() (StepBiased draws one element per query).
	k int
	// mayFail: Sample may legitimately report ok=false on a non-empty
	// window (the over-sampling baseline's documented failure mode).
	mayFail bool
}

func confSubstrates() []confSubstrate {
	return []confSubstrate{
		{name: "core/SeqWR", seq: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewSeqWR[uint64](r, confN, confK) }},
		{name: "core/SeqWOR", seq: true, wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewSeqWOR[uint64](r, confN, confK) }},
		{name: "core/TSWR", k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewTSWR[uint64](r, confT0, confK) }},
		{name: "core/TSWOR", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return core.NewTSWOR[uint64](r, confT0, confK) }},
		{name: "baseline/Chain", seq: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewChain[uint64](r, confN, confK) }},
		{name: "baseline/Oversample", seq: true, wor: true, k: confK, mayFail: true,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewOversample[uint64](r, confN, confK, 2) }},
		{name: "baseline/Priority", k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewPriority[uint64](r, confT0, confK) }},
		{name: "baseline/Skyband", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] { return baseline.NewSkyband[uint64](r, confT0, confK) }},
		{name: "baseline/FullWindow(seq)", seq: true, wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return baseline.NewFullWindowSeq[uint64](r, confN).Bind(confK, true)
			}},
		{name: "baseline/FullWindow(ts)", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return baseline.NewFullWindowTS[uint64](r, confT0).Bind(confK, true)
			}},
		{name: "apps/StepBiased", seq: true, k: 1,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return apps.NewStepBiased[uint64](r, []uint64{16, confN}, []uint64{3, 1})
			}},
		{name: "weighted/WOR", seq: true, wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewWOR[uint64](r, confN, confK, confWeight)
			}},
		{name: "weighted/WR", seq: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewWR[uint64](r, confN, confK, confWeight)
			}},
		{name: "weighted/TSWOR", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewTSWOR[uint64](r, confT0, confK, 0.05, confWeight)
			}},
		{name: "weighted/TSWR", k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return weighted.NewTSWR[uint64](r, confT0, confK, 0.05, confWeight)
			}},
		{name: "parallel/ShardedSeqWR", seq: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedSeqWR[uint64](r, confN, confG, confK)
			}},
		{name: "parallel/ShardedTSWR", k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedTSWR[uint64](r, confT0, confG, confK, 0.05)
			}},
		{name: "parallel/ShardedTSWOR", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedTSWOR[uint64](r, confT0, confG, confK, 0.05)
			}},
		{name: "parallel/ShardedWeightedSeqWOR", seq: true, wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedSeqWOR[uint64](r, confN, confG, confK, 0.05, confWeight)
			}},
		{name: "parallel/ShardedWeightedSeqWR", seq: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedSeqWR[uint64](r, confN, confG, confK, 0.05, confWeight)
			}},
		{name: "parallel/ShardedWeightedTSWOR", wor: true, k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedTSWOR[uint64](r, confT0, confG, confK, 0.05, confWeight)
			}},
		{name: "parallel/ShardedWeightedTSWR", k: confK,
			mk: func(r *xrand.Rand) stream.Sampler[uint64] {
				return parallel.NewShardedWeightedTSWR[uint64](r, confT0, confG, confK, 0.05, confWeight)
			}},
	}
}

func confSync(s stream.Sampler[uint64]) {
	if b, ok := s.(interface{ Barrier() }); ok {
		b.Barrier()
	}
}

func confClose(s stream.Sampler[uint64]) {
	if c, ok := s.(interface{ Close() }); ok {
		c.Close()
	}
}

// confTS yields the bursty timestamp of arrival i (three arrivals per tick).
func confTS(i int) int64 { return int64(i / 3) }

// confWeight is the deterministic weight law of the weighted substrates.
func confWeight(v uint64) float64 { return float64(v%7) + 1 }

func TestConformanceBattery(t *testing.T) {
	const m = 1500
	for _, sub := range confSubstrates() {
		t.Run(sub.name, func(t *testing.T) {
			s := sub.mk(xrand.New(77))
			defer confClose(s)

			// Empty stream.
			confSync(s)
			if _, ok := s.Sample(); ok {
				t.Fatal("sample from empty sampler")
			}
			if s.Count() != 0 {
				t.Fatalf("Count = %d before any arrival", s.Count())
			}
			if s.MaxWords() < s.Words() {
				t.Fatalf("fresh sampler: MaxWords %d < Words %d", s.MaxWords(), s.Words())
			}

			// Feed and check the basic accessors.
			for i := 0; i < m; i++ {
				s.Observe(uint64(i), confTS(i))
			}
			confSync(s)
			if s.Count() != m {
				t.Fatalf("Count = %d, want %d", s.Count(), m)
			}
			if s.K() != sub.k {
				t.Fatalf("K = %d, want %d", s.K(), sub.k)
			}
			if s.Words() <= 0 {
				t.Fatalf("Words = %d", s.Words())
			}
			if s.MaxWords() < s.Words() {
				t.Fatalf("MaxWords %d < Words %d", s.MaxWords(), s.Words())
			}

			// Repeated queries: shape and membership invariants.
			now := confTS(m - 1)
			for q := 0; q < 25; q++ {
				got, ok := s.Sample()
				if !ok {
					if sub.mayFail {
						continue
					}
					t.Fatal("no sample from non-empty window")
				}
				if sub.wor {
					if len(got) > sub.k {
						t.Fatalf("WOR sample of %d > k=%d", len(got), sub.k)
					}
					seen := map[uint64]bool{}
					for _, e := range got {
						if seen[e.Index] {
							t.Fatalf("duplicate index %d in WOR sample", e.Index)
						}
						seen[e.Index] = true
					}
				} else if len(got) != sub.k {
					t.Fatalf("WR sample of %d != k=%d", len(got), sub.k)
				}
				for _, e := range got {
					if e.Value != e.Index {
						t.Fatalf("value/index mismatch: %d vs %d", e.Value, e.Index)
					}
					if sub.seq {
						if e.Index < m-confN || e.Index >= m {
							t.Fatalf("index %d outside window [%d,%d)", e.Index, m-confN, m)
						}
					} else if now-e.TS >= confT0 {
						t.Fatalf("expired element: ts %d at now %d", e.TS, now)
					}
				}
			}

			// Timestamp substrates also answer explicit "as of" queries.
			if ts, ok := s.(stream.TimedSampler[uint64]); ok && !sub.seq {
				got, ok := ts.SampleAt(now)
				if !ok && !sub.mayFail {
					t.Fatal("SampleAt failed on non-empty window")
				}
				for _, e := range got {
					if now-e.TS >= confT0 {
						t.Fatalf("SampleAt returned expired element: ts %d", e.TS)
					}
				}
			}
		})
	}
}

func TestConformanceBatchEquivalence(t *testing.T) {
	// ObserveBatch must be sample-path identical to looped Observe under
	// equal seeds, for every substrate, across irregular batch sizes that
	// straddle bucket boundaries.
	const m = 1200
	sizes := []int{1, 9, 128, 3, 301, 1, 64}
	for _, sub := range confSubstrates() {
		t.Run(sub.name, func(t *testing.T) {
			loop := sub.mk(xrand.New(99))
			batch := sub.mk(xrand.New(99))
			defer confClose(loop)
			defer confClose(batch)

			for i := 0; i < m; i++ {
				loop.Observe(uint64(i), confTS(i))
			}
			buf := make([]stream.Element[uint64], 0, 512)
			for i, si := 0, 0; i < m; si++ {
				sz := sizes[si%len(sizes)]
				if i+sz > m {
					sz = m - i
				}
				buf = buf[:0]
				for j := 0; j < sz; j++ {
					buf = append(buf, stream.Element[uint64]{Value: uint64(i + j), TS: confTS(i + j)})
				}
				batch.ObserveBatch(buf)
				i += sz
			}

			confSync(loop)
			confSync(batch)
			if loop.Count() != batch.Count() {
				t.Fatalf("Count diverged: %d vs %d", loop.Count(), batch.Count())
			}
			if loop.Words() != batch.Words() {
				t.Fatalf("Words diverged: %d vs %d", loop.Words(), batch.Words())
			}
			if loop.MaxWords() != batch.MaxWords() {
				t.Fatalf("MaxWords diverged: %d vs %d", loop.MaxWords(), batch.MaxWords())
			}
			la, lok := loop.Sample()
			ba, bok := batch.Sample()
			if lok != bok || len(la) != len(ba) {
				t.Fatalf("sample shape diverged: ok %v/%v len %d/%d", lok, bok, len(la), len(ba))
			}
			for i := range la {
				if la[i] != ba[i] {
					t.Fatalf("slot %d diverged: %+v vs %+v", i, la[i], ba[i])
				}
			}
		})
	}
}

func TestPublicBatchEquivalence(t *testing.T) {
	// The public ObserveBatch wrappers must match per-element feeding too.
	t.Run("sequence", func(t *testing.T) {
		a, _ := NewSequenceWOR[int](100, 5, WithSeed(3))
		b, _ := NewSequenceWOR[int](100, 5, WithSeed(3))
		var chunk []int
		for i := 0; i < 950; i++ {
			a.Observe(i)
			chunk = append(chunk, i)
			if len(chunk) == 37 {
				b.ObserveBatch(chunk)
				chunk = chunk[:0]
			}
		}
		b.ObserveBatch(chunk)
		av, aok := a.Sample()
		bv, bok := b.Sample()
		if aok != bok || len(av) != len(bv) {
			t.Fatalf("shape diverged")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
		if a.Words() != b.Words() || a.MaxWords() != b.MaxWords() {
			t.Fatal("memory accounting diverged")
		}
	})
	t.Run("timestamp", func(t *testing.T) {
		a, _ := NewTimestampWR[int](60, 4, WithSeed(4))
		b, _ := NewTimestampWR[int](60, 4, WithSeed(4))
		var vals []int
		var tss []int64
		for i := 0; i < 800; i++ {
			ts := int64(i / 5)
			if err := a.Observe(i, ts); err != nil {
				t.Fatal(err)
			}
			vals = append(vals, i)
			tss = append(tss, ts)
			if len(vals) == 53 {
				if err := b.ObserveBatch(vals, tss); err != nil {
					t.Fatal(err)
				}
				vals, tss = vals[:0], tss[:0]
			}
		}
		if err := b.ObserveBatch(vals, tss); err != nil {
			t.Fatal(err)
		}
		av, aok := a.Sample()
		bv, bok := b.Sample()
		if aok != bok || len(av) != len(bv) {
			t.Fatalf("shape diverged")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("slot %d diverged", i)
			}
		}
	})
}

func TestPublicBatchErrors(t *testing.T) {
	s, _ := NewTimestampWOR[string](10, 2, WithSeed(5))
	if err := s.ObserveBatch([]string{"a"}, []int64{1, 2}); err != ErrBatchShape {
		t.Fatalf("length mismatch: got %v", err)
	}
	if err := s.ObserveBatch([]string{"a", "b"}, []int64{5, 3}); err != ErrTimeBackwards {
		t.Fatalf("in-batch regression: got %v", err)
	}
	if s.Count() != 0 {
		t.Fatal("rejected batch mutated the sampler")
	}
	if err := s.ObserveBatch([]string{"a", "b"}, []int64{3, 5}); err != nil {
		t.Fatal(err)
	}
	// A batch starting before the sampler's clock is rejected atomically.
	if err := s.ObserveBatch([]string{"c"}, []int64{4}); err != ErrTimeBackwards {
		t.Fatalf("cross-batch regression: got %v", err)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d after one accepted batch of 2", s.Count())
	}
}

func TestFreshTimedValuesDoesNotPinClock(t *testing.T) {
	// Values() on a fresh timestamp sampler must behave like Sample(): report
	// ok=false WITHOUT advancing the internal clock, so a later stream may
	// still start at any timestamp, including negative ones.
	s, _ := NewTimestampWR[int](10, 2, WithSeed(6))
	if _, ok := s.Values(); ok {
		t.Fatal("values from empty sampler")
	}
	if err := s.Observe(1, -5); err != nil {
		t.Fatalf("negative start after fresh Values: %v", err)
	}
	w, _ := NewTimestampWOR[int](10, 2, WithSeed(6))
	if _, ok := w.Values(); ok {
		t.Fatal("values from empty sampler")
	}
	if err := w.Observe(1, -5); err != nil {
		t.Fatalf("negative start after fresh Values (WOR): %v", err)
	}
}

// confEstimatorAPI is the estimator surface shared by apps.NewSubsetSum,
// apps.NewSubsetSumTS, and apps.NewShardedSubsetSumTS. The subset-sum
// substrates answer Estimate/Total instead of Sample — they are not
// stream.Samplers — so they get their own battery half below instead of a
// row in confSubstrates.
type confEstimatorAPI interface {
	Observe(value uint64, ts int64)
	ObserveBatch(batch []stream.Element[uint64])
	Estimate(pred func(uint64) bool) (float64, bool)
	K() int
	Count() uint64
	Words() int
	MaxWords() int
}

type confEstimator struct {
	name string
	seq  bool
	mk   func(r *xrand.Rand) confEstimatorAPI
}

// confEstK is larger than confK: the Horvitz–Thompson estimate over k
// sketch slots tightens with k, and 48 slots keep the deterministic
// tolerance below modest.
const confEstK = 48

func confEstimators() []confEstimator {
	return []confEstimator{
		{name: "apps/SubsetSum", seq: true,
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewSubsetSum[uint64](r, confN, confEstK, confWeight)
			}},
		{name: "apps/SubsetSumTS",
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewSubsetSumTS[uint64](r, confT0, confEstK, 0.05, confWeight)
			}},
		{name: "apps/ShardedSubsetSumTS",
			mk: func(r *xrand.Rand) confEstimatorAPI {
				return apps.NewShardedSubsetSumTS[uint64](r, confT0, confG, confEstK, 0.05, confWeight)
			}},
	}
}

// confEstSync/confEstClose mirror confSync/confClose for the estimator
// surface (the sharded estimator is checkpointed like the sharded samplers).
func confEstSync(e confEstimatorAPI) {
	if b, ok := e.(interface{ Barrier() }); ok {
		b.Barrier()
	}
}

// confEstAll is the pred ≡ true subset: Estimate(confEstAll) is the total
// active weight, the one query every estimator answers (the sharded
// estimator has TotalAt but no Total, so the battery totals through it).
func confEstAll(uint64) bool { return true }

func confEstClose(e confEstimatorAPI) {
	if c, ok := e.(interface{ Close() }); ok {
		c.Close()
	}
}

// TestEstimatorBattery is the estimator half of the conformance battery:
// every subset-sum substrate refuses to estimate an empty window, reports
// memory and counters sanely, and answers Estimate/Total within a
// deterministic tolerance of the exact windowed subset sum (fixed seed, so
// the tolerance is a regression pin, not a statistical bet).
func TestEstimatorBattery(t *testing.T) {
	const m = 1500
	const tol = 0.35
	for _, sub := range confEstimators() {
		t.Run(sub.name, func(t *testing.T) {
			e := sub.mk(xrand.New(101))
			defer confEstClose(e)

			confEstSync(e)
			if _, ok := e.Estimate(confEstAll); ok {
				t.Fatal("estimate from empty window")
			}
			if e.MaxWords() < e.Words() {
				t.Fatalf("fresh estimator: MaxWords %d < Words %d", e.MaxWords(), e.Words())
			}

			for i := 0; i < m; i++ {
				e.Observe(uint64(i), confTS(i))
			}
			confEstSync(e)
			if e.Count() != m {
				t.Fatalf("Count = %d, want %d", e.Count(), m)
			}
			if e.K() != confEstK {
				t.Fatalf("K = %d, want %d", e.K(), confEstK)
			}
			if e.Words() <= 0 {
				t.Fatalf("Words = %d", e.Words())
			}
			if e.MaxWords() < e.Words() {
				t.Fatalf("MaxWords %d < Words %d", e.MaxWords(), e.Words())
			}

			// Exact subset sums over the active window.
			now := confTS(m - 1)
			exactTotal, exactEven := 0.0, 0.0
			for i := 0; i < m; i++ {
				if sub.seq {
					if i < m-confN {
						continue
					}
				} else if now-confTS(i) >= confT0 {
					continue
				}
				w := confWeight(uint64(i))
				exactTotal += w
				if i%2 == 0 {
					exactEven += w
				}
			}

			total, ok := e.Estimate(confEstAll)
			if !ok {
				t.Fatal("Estimate(all) failed on non-empty window")
			}
			if rel := math.Abs(total-exactTotal) / exactTotal; rel > tol {
				t.Fatalf("Estimate(all) = %g, exact %g (rel err %.2f)", total, exactTotal, rel)
			}
			even, ok := e.Estimate(func(v uint64) bool { return v%2 == 0 })
			if !ok {
				t.Fatal("Estimate failed on non-empty window")
			}
			if rel := math.Abs(even-exactEven) / exactEven; rel > tol {
				t.Fatalf("Estimate(even) = %g, exact %g (rel err %.2f)", even, exactEven, rel)
			}
		})
	}
}
