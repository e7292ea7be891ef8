// Package slidingsample provides uniform random sampling from sliding
// windows over data streams with worst-case (deterministic) memory bounds —
// a Go implementation of Braverman, Ostrovsky and Zaniolo, "Optimal sampling
// from sliding windows" (PODS 2009; J. Comput. Syst. Sci. 78(1):260–272,
// 2012).
//
// # The problem
//
// A sliding window keeps only the most recent part of a stream active:
// either the last n elements (a sequence-based window) or the elements of
// the last t0 time units (a timestamp-based window). Sampling uniformly
// from such a window is harder than sampling from a whole stream because
// elements expire implicitly — by the time a sample expires, the data that
// should replace it has already passed by. Prior solutions (chain sampling,
// priority sampling, over-sampling) keep enough "backup" elements in
// expectation, but their memory use is a random variable. This package
// implements the paper's algorithms, whose memory bounds hold at every
// instant of every run:
//
//	NewSequenceWR   k samples with replacement,    last-n window,   Θ(k) words
//	NewSequenceWOR  k samples without replacement, last-n window,   Θ(k) words
//	NewTimestampWR  k samples with replacement,    last-t0 window,  Θ(k·log n) words
//	NewTimestampWOR k samples without replacement, last-t0 window,  Θ(k·log n) words
//	NewStepBiased   recency-biased sampling from nested windows     Θ(steps) words
//
// The timestamp bounds are optimal: they match the Ω(k log n) lower bound
// of Gemulla and Lehner.
//
// # Weighted sampling
//
// Weight-skewed workloads (netflow bytes, trade notional, edge
// multiplicity) waste a uniform sample's slots on light elements. The
// weighted samplers draw elements in proportion to caller-supplied positive
// weights, over both window models, under the Efraimidis–Spirakis law:
//
//	NewWeightedSequenceWOR   weighted k-sample without replacement, last-n window,  expected O(k·log n) words
//	NewWeightedSequenceWR    k independent weighted draws,          last-n window,  expected O(k·log n) words
//	NewWeightedTimestampWOR  weighted k-sample without replacement, last-t0 window, expected O(k·log n) words
//	NewWeightedTimestampWR   k independent weighted draws,          last-t0 window, expected O(k·log n) words
//
// Ingest takes the weight alongside the value — Observe(value, weight) and
// ObserveBatch(values, weights), plus a trailing timestamp for the
// timestamp-window samplers — and samples carry their weights back
// (SampledWeight). "Heaviest flows by bytes in the last minute" is three
// lines:
//
//	s, _ := slidingsample.NewWeightedTimestampWOR[Flow](60_000, 10) // last minute, k=10
//	s.Observe(flow, float64(flow.Bytes), flow.ArrivalMillis)
//	heavy, ok := s.SampleAt(nowMillis)
//
// Timestamp windows expire at query time too — SampleAt keeps draining the
// window after the last arrival — and the number of active elements n(t)
// is data-dependent and not exactly computable in small space (the paper's
// Section 3 negative result), so each timestamp-window sampler embeds an
// exponential-histogram counter: SizeAt(now) reports a (1±5%) estimate of
// n(t) without advancing the clock. Unlike the uniform samplers'
// deterministic bounds, the weighted substrates' footprint is a random
// variable (its expectation is what is bounded); the internal estimator
// layer builds Horvitz–Thompson windowed subset-sum sketches on top
// (internal/apps, experiments E17/E18).
//
// # Sharded weighted sampling
//
// For streams too fast for one core, the weighted samplers come in G-way
// parallel flavors over both window models:
//
//	NewShardedWeightedTimestampWOR  g-way ingest, exact weighted k-sample without replacement
//	NewShardedWeightedTimestampWR   g-way ingest, k weighted draws, (1±5%) cross-shard picks
//	NewShardedWeightedSequenceWOR   the same exact WOR law over the last n elements (n % g == 0)
//	NewShardedWeightedSequenceWR    k weighted draws over the last n elements, (1±5%) picks
//
// Elements are dealt round-robin to G shard goroutines. The
// without-replacement law stays EXACT — Efraimidis–Spirakis keys are
// globally comparable, so the merged per-shard top-k is the window's
// top-k — while with-replacement draws pick a shard by its estimated
// active weight, tracked per shard by an exponential histogram over
// weights; the same oracle backs TotalWeightAt (timestamp windows) and
// TotalWeight (sequence windows, clocked on the arrival index), a (1±5%)
// estimate of the window's total weight. Drive each sharded sampler —
// ingest and queries, oracles included — from one goroutine (the shard
// parallelism is internal); queries flush in-flight ingest automatically
// (every Sample/SampleAt holds a barrier, so the internal
// query-needs-Barrier panic is unreachable from the public API; Barrier
// stays exported to checkpoint once before a read-heavy query burst), and
// Close stops the shard goroutines:
//
//	s, _ := slidingsample.NewShardedWeightedTimestampWOR[Flow](60_000, 4, 10) // last minute, 4 shards
//	defer s.Close()
//	s.Observe(flow, float64(flow.Bytes), flow.ArrivalMillis)
//	heavy, ok := s.SampleAt(nowMillis)     // flushes, then samples
//	bytes := s.TotalWeightAt(nowMillis)    // (1±5%) active bytes, no flush needed
//
// # Serving over HTTP
//
// The repository also ships the serving-system shape these samplers were
// built for: cmd/swserve exposes a named-sampler registry over HTTP — any
// substrate above (plus the internal baselines and subset-sum estimator
// substrates) behind a batched JSON/NDJSON ingest endpoint and concurrent
// query endpoints (/sample, /size, /weight, /subsetsum). Ingest has one
// path: handlers stage batches on a small admission mutex (a full staging
// queue answers 503 — bounded memory, explicit overload) while a
// per-instance applier feeds the substrate in admission order; read-only
// oracle queries ride a read lock, and sharded sample queries run their
// per-shard sub-queries inline, in shard order, after the barrier — all
// byte-for-byte what the same sampler driven directly answers. Responses
// are deterministic per seed, timestamp monotonicity is enforced as 4xx
// statuses instead of the library's errors/panics, and shutdown drains
// every sampler's dispatcher barrier before stopping its shards. See
// DESIGN.md §7, BENCH_5.json (historical rows from a since-retired
// closed-loop harness) and `go doc ./cmd/swserve`.
//
// Because one sampler is only O(k·log n) words, the serving layer also
// scales the other axis: a multi-tenant FABRIC (swserve -fabric) keeps an
// independently seeded sampler per tenant — lazily created on first
// arrival through a striped keyed registry, state drawn from slab pools,
// hundreds of bytes per idle tenant — so a single process serves
// /tenant/{fabric}/{id}/... for hundreds of thousands to millions of live
// tenants with per-tenant byte-determinism. See DESIGN.md §9 and
// BENCH_6.json (naive-registry vs fabric rows).
//
// State survives restarts: every sampler carries a versioned binary
// Snapshot/Restore pair (the public wrappers expose Snapshot methods and
// RestoreSequenceWR/RestoreSequenceWOR/RestoreTimestampWR/
// RestoreTimestampWOR), and a restored sampler resumes bit-identically —
// same retained elements, same RNG position, same future draws. swserve
// layers durability on top (-state-dir): periodic snapshots plus an
// NDJSON ingest WAL appended before a batch is acknowledged, recovery on
// start, and POST /snapshot / /restore for shipping state between
// processes. See DESIGN.md §10.
//
// # One interface, many substrates
//
// All public samplers are thin generic adapters over the unified internal
// sampler interface (stream.Sampler / stream.TimedSampler): the same
// contract is satisfied by the four core algorithms, the bundled baseline
// implementations, the step-biased extension, and the sharded parallel
// ingest wrappers, so experiments, estimators and tools run against any
// substrate. Each sampler answers Sample/Values (and SampleAt/ValuesAt for
// timestamp windows), reports K, Count, and its memory footprint in the
// paper's word model via Words and MaxWords (DESIGN.md §6) — which is how
// the repository's experiments (DESIGN.md §4, regenerated by cmd/swbench)
// demonstrate the deterministic-versus-randomized contrast.
//
// # Usage
//
// Samplers are generic in the element type and are fed one element at a
// time; queries may interleave arbitrarily with arrivals:
//
//	s, _ := slidingsample.NewSequenceWOR[string](1000, 10)
//	for msg := range input {
//	    s.Observe(msg)
//	    if sample, ok := s.Sample(); ok { ... }
//	}
//
// Timestamp-based samplers take explicit non-decreasing timestamps (any
// integer clock — seconds, milliseconds, ticks) and answer queries "as of"
// a time:
//
//	s, _ := slidingsample.NewTimestampWR[Packet](60_000, 5) // last minute
//	s.Observe(pkt, pkt.ArrivalMillis)
//	sample, ok := s.SampleAt(nowMillis)
//
// # Batched ingest
//
// For high-throughput feeds, ObserveBatch pushes a run of elements through
// the sampler's batched hot path. The result is identical to calling
// Observe per element — under WithSeed the two paths make exactly the same
// random choices — but per-element bookkeeping (footprint scans, bucket
// boundary checks, expiry scans, allocator traffic) is amortized across
// the run, which is measurably faster per element (see BenchmarkBatch_* and
// BENCH_1.json):
//
//	s, _ := slidingsample.NewSequenceWOR[string](1000, 10)
//	s.ObserveBatch(lines)                       // sequence windows
//	t, _ := slidingsample.NewTimestampWR[string](60, 4)
//	err := t.ObserveBatch(values, timestamps)   // timestamp windows
//
// Samplers are not safe for concurrent use; feed each from a single
// goroutine (e.g. a channel consumer). For multi-core ingest see
// internal/parallel's sharded wrappers, reachable through cmd/swsample.
//
// The package's behavioral contracts — queries are rng-free reads, no
// ambient time or stray rng sources, the serving layer's lock ordering,
// named panics on the exported error surface — are machine-checked by
// cmd/swlint (run as `make lint`); see internal/lint and DESIGN.md §8.
package slidingsample
