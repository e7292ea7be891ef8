package slidingsample

// bench_test.go: the E11 systems table plus one timing benchmark per
// experiment workload (E1–E16). Run with:
//
//	go test -bench=. -benchmem
//
// The statistical content of each experiment (memory tables, uniformity
// p-values, estimator errors) is produced by cmd/swbench; these benchmarks
// measure the per-element and per-query costs of exactly the same
// configurations, so DESIGN.md §4 can report both axes.

import (
	"testing"

	"slidingsample/internal/apps"
	"slidingsample/internal/baseline"
	"slidingsample/internal/core"
	"slidingsample/internal/ehist"
	"slidingsample/internal/parallel"
	"slidingsample/internal/reservoir"
	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// tsPattern yields a mildly bursty timestamp for arrival i.
func tsAt(i int) int64 { return int64(i / 3) }

// ---------------------------------------------------------------------------
// E1: sequence-based, with replacement
// ---------------------------------------------------------------------------

func BenchmarkE1_SeqWR_Observe(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := core.NewSeqWR[uint64](xrand.New(1), 10_000, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), int64(i))
			}
		})
	}
}

func BenchmarkE1_Chain_Observe(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := baseline.NewChain[uint64](xrand.New(1), 10_000, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), int64(i))
			}
		})
	}
}

func BenchmarkE1_SeqWR_Sample(b *testing.B) {
	s := core.NewSeqWR[uint64](xrand.New(1), 10_000, 16)
	for i := 0; i < 25_000; i++ {
		s.Observe(uint64(i), int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Sample(); !ok {
			b.Fatal("no sample")
		}
	}
}

// ---------------------------------------------------------------------------
// E2: sequence-based, without replacement
// ---------------------------------------------------------------------------

func BenchmarkE2_SeqWOR_Observe(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := core.NewSeqWOR[uint64](xrand.New(1), 10_000, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), int64(i))
			}
		})
	}
}

func BenchmarkE2_SeqWOR_Sample(b *testing.B) {
	s := core.NewSeqWOR[uint64](xrand.New(1), 10_000, 64)
	for i := 0; i < 25_000; i++ {
		s.Observe(uint64(i), int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Sample(); !ok {
			b.Fatal("no sample")
		}
	}
}

func BenchmarkE2_Oversample_Observe(b *testing.B) {
	s := baseline.NewOversample[uint64](xrand.New(1), 10_000, 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i), int64(i))
	}
}

// ---------------------------------------------------------------------------
// E3: timestamp-based, with replacement
// ---------------------------------------------------------------------------

func BenchmarkE3_TSWR_Observe(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := core.NewTSWR[uint64](xrand.New(1), 512, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), tsAt(i))
			}
		})
	}
}

func BenchmarkE3_Priority_Observe(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := baseline.NewPriority[uint64](xrand.New(1), 512, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), tsAt(i))
			}
		})
	}
}

func BenchmarkE3_TSWR_Sample(b *testing.B) {
	s := core.NewTSWR[uint64](xrand.New(1), 512, 16)
	for i := 0; i < 100_000; i++ {
		s.Observe(uint64(i), tsAt(i))
	}
	now := tsAt(99_999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SampleAt(now); !ok {
			b.Fatal("no sample")
		}
	}
}

// ---------------------------------------------------------------------------
// E4: the doubling adversary (stress arrival path under huge bursts)
// ---------------------------------------------------------------------------

func BenchmarkE4_TSWR_DoublingAdversary(b *testing.B) {
	adv := stream.NewDoublingArrivals(10, 0)
	s := core.NewTSWR[uint64](xrand.New(1), 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i), adv.Next())
	}
}

// ---------------------------------------------------------------------------
// E5: timestamp-based, without replacement
// ---------------------------------------------------------------------------

func BenchmarkE5_TSWOR_Observe(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := core.NewTSWOR[uint64](xrand.New(1), 512, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), tsAt(i))
			}
		})
	}
}

func BenchmarkE5_Skyband_Observe(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			s := baseline.NewSkyband[uint64](xrand.New(1), 512, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(uint64(i), tsAt(i))
			}
		})
	}
}

func BenchmarkE5_TSWOR_Sample(b *testing.B) {
	s := core.NewTSWOR[uint64](xrand.New(1), 512, 16)
	for i := 0; i < 60_000; i++ {
		s.Observe(uint64(i), tsAt(i))
	}
	now := tsAt(59_999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SampleAt(now); !ok {
			b.Fatal("no sample")
		}
	}
}

// ---------------------------------------------------------------------------
// E6/E7 use the same samplers as above; the public-API wrapper overhead is
// what remains to measure.
// ---------------------------------------------------------------------------

func BenchmarkE6_PublicSequenceWOR_Observe(b *testing.B) {
	s, err := NewSequenceWOR[uint64](10_000, 16, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i))
	}
}

func BenchmarkE7_PublicTimestampWR_Observe(b *testing.B) {
	s, err := NewTimestampWR[uint64](512, 4, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Observe(uint64(i), tsAt(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E8-E10: Section 5 estimators (per-element cost includes the counter layer)
// ---------------------------------------------------------------------------

func BenchmarkE8_Moments_Observe(b *testing.B) {
	r := xrand.New(1)
	est := apps.NewMoments(apps.SeqWRSource(core.NewSeqWR[uint64](r.Split(), 4096, 80)), 2, 16, 5)
	zipf := stream.NewZipfValues(r.Split(), 1.2, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Observe(zipf.Next(), int64(i))
	}
}

func BenchmarkE9_Triangles_Observe(b *testing.B) {
	r := xrand.New(1)
	est := apps.NewTriangles(r.Split(), 512, 128, 1024)
	gen := r.Split()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := gen.Uint64n(128)
		c := (a + 1 + gen.Uint64n(126)) % 128
		est.Observe(apps.Edge{U: a, V: c}, int64(i))
	}
}

func BenchmarkE10_Entropy_Observe(b *testing.B) {
	r := xrand.New(1)
	eh := ehist.NewEps(512, 0.05)
	s := core.NewTSWR[uint64](r.Split(), 512, 80)
	est := apps.NewEntropy(apps.TSWRSource(s, eh.SizeOracle()), 16, 5)
	zipf := stream.NewZipfValues(r.Split(), 1.2, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := tsAt(i)
		est.Observe(zipf.Next(), ts)
		eh.Observe(ts)
	}
}

// ---------------------------------------------------------------------------
// E11: substrate ablations — reservoir variants and the full-window strawman
// ---------------------------------------------------------------------------

func BenchmarkE11_ReservoirSingle_Observe(b *testing.B) {
	s := reservoir.NewSingle[uint64](xrand.New(1))
	e := stream.Element[uint64]{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Index = uint64(i)
		s.Observe(e)
	}
}

func BenchmarkE11_ReservoirFastSingle_Observe(b *testing.B) {
	s := reservoir.NewFastSingle[uint64](xrand.New(1))
	e := stream.Element[uint64]{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Index = uint64(i)
		s.Observe(e)
	}
}

func BenchmarkE11_FullWindow_Observe(b *testing.B) {
	s := baseline.NewFullWindowSeq[uint64](xrand.New(1), 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i), int64(i))
	}
}

func BenchmarkE11_Ehist_Observe(b *testing.B) {
	c := ehist.NewEps(512, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(tsAt(i))
	}
}

// ---------------------------------------------------------------------------
// E12: step-biased sampling
// ---------------------------------------------------------------------------

func BenchmarkE12_StepBiased_Observe(b *testing.B) {
	s, err := NewStepBiased[uint64]([]uint64{100, 10_000}, []uint64{1, 1}, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i))
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Ablation: TSWR's shared bucket skeleton vs k independent single-sample
// instances. DESIGN.md calls the sharing out as a design decision: boundaries
// are deterministic, so one skeleton can carry k independent (R,Q) slot
// pairs. The ablation measures what the sharing buys in time and words.
// ---------------------------------------------------------------------------

func BenchmarkAblation_TSWR_SharedSkeleton_k16(b *testing.B) {
	s := core.NewTSWR[uint64](xrand.New(1), 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i), tsAt(i))
	}
}

func BenchmarkAblation_TSWR_IndependentInstances_k16(b *testing.B) {
	r := xrand.New(1)
	insts := make([]*core.TSWR[uint64], 16)
	for i := range insts {
		insts[i] = core.NewTSWR[uint64](r.Split(), 512, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range insts {
			s.Observe(uint64(i), tsAt(i))
		}
	}
}

// ---------------------------------------------------------------------------
// Batched ingest: ObserveBatch vs looped Observe on all four core samplers
// (the PR-1 tentpole hot path; BENCH_1.json records a baseline run).
// ---------------------------------------------------------------------------

const batchSize = 256

// feedLoop and feedBatch push b.N elements through a sampler per element and
// in batchSize chunks respectively; the chunk assembly is timed as part of
// the batched path (it is what a real caller pays).
func feedLoop(b *testing.B, s stream.Sampler[uint64], ts func(int) int64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i), ts(i))
	}
}

func feedBatch(b *testing.B, s stream.Sampler[uint64], ts func(int) int64) {
	buf := make([]stream.Element[uint64], 0, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		buf = buf[:0]
		for j := 0; j < batchSize && i < b.N; j++ {
			buf = append(buf, stream.Element[uint64]{Value: uint64(i), TS: ts(i)})
			i++
		}
		s.ObserveBatch(buf)
	}
}

func seqTS(int) int64 { return 0 }

func BenchmarkBatch_SeqWR_Loop(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, core.NewSeqWR[uint64](xrand.New(1), 10_000, k), seqTS)
		})
	}
}

func BenchmarkBatch_SeqWR_Batch(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, core.NewSeqWR[uint64](xrand.New(1), 10_000, k), seqTS)
		})
	}
}

func BenchmarkBatch_SeqWOR_Loop(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, core.NewSeqWOR[uint64](xrand.New(1), 10_000, k), seqTS)
		})
	}
}

func BenchmarkBatch_SeqWOR_Batch(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, core.NewSeqWOR[uint64](xrand.New(1), 10_000, k), seqTS)
		})
	}
}

func BenchmarkBatch_TSWR_Loop(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, core.NewTSWR[uint64](xrand.New(1), 512, k), tsAt)
		})
	}
}

func BenchmarkBatch_TSWR_Batch(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, core.NewTSWR[uint64](xrand.New(1), 512, k), tsAt)
		})
	}
}

func BenchmarkBatch_TSWOR_Loop(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, core.NewTSWOR[uint64](xrand.New(1), 512, k), tsAt)
		})
	}
}

func BenchmarkBatch_TSWOR_Batch(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, core.NewTSWOR[uint64](xrand.New(1), 512, k), tsAt)
		})
	}
}

// Weighted substrates (PR-2 tentpole): the skyband walk is inherently per
// element, so Batch vs Loop measures what the locals convention buys.
func benchWeightFn(v uint64) float64 { return float64(v%16) + 1 }

func BenchmarkBatch_WeightedWOR_Loop(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, weighted.NewWOR[uint64](xrand.New(1), 10_000, k, benchWeightFn), seqTS)
		})
	}
}

func BenchmarkBatch_WeightedWOR_Batch(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, weighted.NewWOR[uint64](xrand.New(1), 10_000, k, benchWeightFn), seqTS)
		})
	}
}

func BenchmarkBatch_WeightedWR_Loop(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, weighted.NewWR[uint64](xrand.New(1), 10_000, k, benchWeightFn), seqTS)
		})
	}
}

func BenchmarkBatch_WeightedWR_Batch(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, weighted.NewWR[uint64](xrand.New(1), 10_000, k, benchWeightFn), seqTS)
		})
	}
}

// Weighted timestamp substrates (PR-3 tentpole): the per-element cost adds
// the embedded ehist counter's amortized O(log n) to the skyband walk.
func BenchmarkBatch_WeightedTSWOR_Loop(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, weighted.NewTSWOR[uint64](xrand.New(1), 512, k, 0.05, benchWeightFn), tsAt)
		})
	}
}

func BenchmarkBatch_WeightedTSWOR_Batch(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, weighted.NewTSWOR[uint64](xrand.New(1), 512, k, 0.05, benchWeightFn), tsAt)
		})
	}
}

func BenchmarkBatch_WeightedTSWR_Loop(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedLoop(b, weighted.NewTSWR[uint64](xrand.New(1), 512, k, 0.05, benchWeightFn), tsAt)
		})
	}
}

func BenchmarkBatch_WeightedTSWR_Batch(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(benchName("k", k), func(b *testing.B) {
			feedBatch(b, weighted.NewTSWR[uint64](xrand.New(1), 512, k, 0.05, benchWeightFn), tsAt)
		})
	}
}

// Sharded ingest: batched dealing amortizes the channel send (one message
// per shard per chunk instead of one per element).
func BenchmarkBatch_ShardedSeqWR_Loop(b *testing.B) {
	s := parallel.NewShardedSeqWR[uint64](xrand.New(1), 1<<16, 4, 16)
	defer s.Close()
	feedLoop(b, s, seqTS)
	b.StopTimer()
	s.Barrier()
}

func BenchmarkBatch_ShardedSeqWR_Batch(b *testing.B) {
	s := parallel.NewShardedSeqWR[uint64](xrand.New(1), 1<<16, 4, 16)
	defer s.Close()
	feedBatch(b, s, seqTS)
	b.StopTimer()
	s.Barrier()
}

// The cross-shard weighting read path: repeated SampleAt at one checkpoint
// (ingest, one Barrier, many queries — the serving cadence). Before the
// PR-4 cache every query re-ran EstimateAt over the ehist buckets and
// allocated a fresh per-shard sizes slice; now the (count, query-time) key
// makes repeat queries hit the cached weights. BENCH_4.json records the
// before/after.
func BenchmarkShardedTSWR_SampleAt(b *testing.B) {
	s := parallel.NewShardedTSWR[uint64](xrand.New(1), 512, 4, 16, 0.05)
	defer s.Close()
	for i := 0; i < 100_000; i++ {
		s.Observe(uint64(i), tsAt(i))
	}
	s.Barrier()
	now := tsAt(99_999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SampleAt(now); !ok {
			b.Fatal("no sample")
		}
	}
}

func BenchmarkShardedTSWOR_SampleAt(b *testing.B) {
	s := parallel.NewShardedTSWOR[uint64](xrand.New(1), 512, 4, 16, 0.05)
	defer s.Close()
	for i := 0; i < 100_000; i++ {
		s.Observe(uint64(i), tsAt(i))
	}
	s.Barrier()
	now := tsAt(99_999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SampleAt(now); !ok {
			b.Fatal("no sample")
		}
	}
}

// The weighted WOR query at serving scale: G=8 shards at K=64 over a
// window that holds every arrival, the shape of swperf's query-fanout
// workload. 200k arrivals leave 400-450 retained nodes per shard
// (expected k·(1+ln(n/(g·k)))), so the query is the per-shard top-k
// selection plus the cross-shard merge. -short fills 20k (~280 per shard)
// to keep the CI bench smoke fast.
func BenchmarkShardedWeightedTSWOR_SampleAt(b *testing.B) {
	fill := 200_000
	if testing.Short() {
		fill = 20_000
	}
	s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(1), 3600, 8, 64, 0.05,
		func(v uint64) float64 { return float64(v%1000 + 1) })
	defer s.Close()
	for i := 0; i < fill; i++ {
		s.Observe(uint64(i), int64(i/100))
	}
	s.Barrier()
	now := int64((fill - 1) / 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SampleAt(now); !ok {
			b.Fatal("no sample")
		}
	}
}

// Sharded weighted timestamp ingest at the serving shapes of swperf's
// flows-durable (T0=60, G=4, K=16) and query-fanout (T0=3600, G=8, K=64)
// workloads: 200-event batches with precomputed weights at 100 events per
// tick, into a window filled before the timer starts, so every skyband and
// histogram is at its steady-state size. One op is one batch; the closing
// barrier runs inside the timer, so ns/event prices the shard workers'
// skyband walks as well as the producer's histograms and dealing. Run with
// -cpu 1,2 for the GOMAXPROCS rows. -short caps the fill at 50 batches to
// keep the CI bench smoke fast.
func BenchmarkShardedWeightedTSWOR_Ingest(b *testing.B) {
	const batch, perTick = 200, 100
	shapes := []struct {
		name string
		t0   int64
		g, k int
	}{
		{"flows-durable", 60, 4, 16},
		{"query-fanout", 3600, 8, 64},
	}
	// Byte-like weights, drawn once and cycled: the timed loop only deals
	// and ingests.
	weights := make([][]float64, 16)
	rng := xrand.New(2)
	for i := range weights {
		weights[i] = make([]float64, batch)
		for j := range weights[i] {
			weights[i][j] = float64(40 + rng.Intn(1461))
		}
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(1), sh.t0, sh.g, sh.k, 0.05, benchWeightFn)
			defer s.Close()
			elems := make([]stream.Element[uint64], batch)
			next := 0
			feed := func() {
				ws := weights[next/batch%len(weights)]
				for j := range elems {
					elems[j] = stream.Element[uint64]{Value: uint64(next), TS: int64(next / perTick)}
					next++
				}
				s.ObserveWeightedBatch(elems, ws)
			}
			fill := int(sh.t0) * perTick / batch
			if testing.Short() {
				fill = min(fill, 50)
			}
			for range fill {
				feed()
			}
			s.Barrier()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				feed()
			}
			s.Barrier()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
		})
	}
}

// The checkpointed query cadence: one Barrier + Sample per batch. This is
// what real consumers of the sharded samplers run (queries require a
// barrier), and it is the cadence the dispatcher's double-buffered batch
// slices make allocation-free.
func BenchmarkBatch_ShardedSeqWR_BatchQuery(b *testing.B) {
	s := parallel.NewShardedSeqWR[uint64](xrand.New(1), 1<<16, 4, 16)
	defer s.Close()
	buf := make([]stream.Element[uint64], 0, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		buf = buf[:0]
		for j := 0; j < batchSize && i < b.N; j++ {
			buf = append(buf, stream.Element[uint64]{Value: uint64(i)})
			i++
		}
		s.ObserveBatch(buf)
		s.Barrier()
		if _, ok := s.Sample(); !ok {
			b.Fatal("no sample")
		}
	}
}

// Sharded WEIGHTED ingest (PR-4 tentpole): the weight-aware dealing
// computes each element's weight once producer-side — feeding the
// per-shard weight histograms — and ships batch and weights through the
// same double-buffered recycling (BENCH_4.json records the baselines).
func BenchmarkBatch_ShardedWeightedTSWOR_Loop(b *testing.B) {
	s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(1), 512, 4, 8, 0.05, benchWeightFn)
	defer s.Close()
	feedLoop(b, s, tsAt)
	b.StopTimer()
	s.Barrier()
}

func BenchmarkBatch_ShardedWeightedTSWOR_Batch(b *testing.B) {
	s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(1), 512, 4, 8, 0.05, benchWeightFn)
	defer s.Close()
	feedBatch(b, s, tsAt)
	b.StopTimer()
	s.Barrier()
}

func BenchmarkBatch_ShardedWeightedTSWR_Loop(b *testing.B) {
	s := parallel.NewShardedWeightedTSWR[uint64](xrand.New(1), 512, 4, 8, 0.05, benchWeightFn)
	defer s.Close()
	feedLoop(b, s, tsAt)
	b.StopTimer()
	s.Barrier()
}

func BenchmarkBatch_ShardedWeightedTSWR_Batch(b *testing.B) {
	s := parallel.NewShardedWeightedTSWR[uint64](xrand.New(1), 512, 4, 8, 0.05, benchWeightFn)
	defer s.Close()
	feedBatch(b, s, tsAt)
	b.StopTimer()
	s.Barrier()
}

// The sharded weighted checkpointed cadence: batch, barrier, merged-WOR
// query. The query-side weight cache keys on (count, query time), so the
// weights recompute once per checkpoint here — the ingest path is what
// this benchmark prices.
func BenchmarkBatch_ShardedWeightedTSWOR_BatchQuery(b *testing.B) {
	s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(1), 512, 4, 8, 0.05, benchWeightFn)
	defer s.Close()
	buf := make([]stream.Element[uint64], 0, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		buf = buf[:0]
		for j := 0; j < batchSize && i < b.N; j++ {
			buf = append(buf, stream.Element[uint64]{Value: uint64(i), TS: tsAt(i)})
			i++
		}
		s.ObserveBatch(buf)
		s.Barrier()
		if _, ok := s.Sample(); !ok {
			b.Fatal("no sample")
		}
	}
}
