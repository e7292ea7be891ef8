// weighted.go: G-way parallel WEIGHTED samplers — the Efraimidis–Spirakis
// substrates of internal/weighted behind the same round-robin dealing
// machinery as the uniform sharded samplers, composed across shards by
// weight instead of by count.
//
// The dealing argument carries over unchanged (each shard's active window
// is exactly its slice of the global window), but the cross-shard
// composition splits by sampling mode:
//
//   - WITHOUT replacement composes EXACTLY. An Efraimidis–Spirakis log-key
//     is globally comparable — every element draws ln(U)/w independently,
//     no matter which shard keyed it — and the global weighted k-sample is
//     the key-top-k of the window. Each shard retains (at least) the top-k
//     of its own slice, so the top-k of the UNION of the per-shard samples
//     IS the global top-k: the merged sample follows the exact weighted
//     WOR law, with no cross-shard estimate involved. Only estimator scale
//     factors (weight totals, window sizes) carry an ε.
//
//   - WITH replacement needs per-shard active WEIGHT totals: slot j picks
//     a shard with probability W_shard/W and takes the shard's exact slot
//     draw, so each element lands with probability (W_shard/W)·(w/W_shard)
//     = w/W. Unlike counts — which round-robin dealing derives
//     arithmetically from one global estimate — weight totals are
//     per-shard quantities, and tracking them exactly is as impossible as
//     exact window counting. The dispatcher therefore keeps one
//     exponential histogram over WEIGHTS per shard (ehist.Weighted, the
//     sum analogue of the count estimator), updated as elements are dealt,
//     and the cross-shard pick is (1±ε)-correct.
//
// Sequence windows reuse the identical machinery by clocking the weight
// oracles on the ARRIVAL INDEX: a window of the last n elements is a
// "timestamp" window of horizon n over global indices, and n divisible by
// G puts exactly n/G active elements on every shard — each shard's last
// n/G arrivals, which is precisely what the shard-local samplers cover.
//
// The per-shard weight oracles double as the estimator layer's scale
// factors: TotalWeightAt sums them into a (1±ε) active-weight total
// (apps.ShardedSubsetSumTS reads it directly), and the timestamp samplers
// keep the usual global size oracle (SizeAt) alongside.
package parallel

import (
	"slidingsample/internal/ehist"
	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// wdispatch is the shared state of the sharded weighted samplers: the
// weight-aware dispatcher, the per-shard exponential histograms over
// weights, and (timestamp windows) the global active-count oracle.
type wdispatch[T any] struct {
	d      *dispatcher[T]
	g      int
	k      int
	t0     int64 // horizon: clock ticks (timestamp) or the window size n (sequence)
	seq    bool  // sequence window: the oracle clock is the arrival index
	rng    *xrand.Rand
	weight func(T) float64
	wests  []*ehist.Weighted
	size   *ehist.Counter // timestamp windows only: global n(t) oracle
	now    int64
	begun  bool
	// wscratch carries the batch's precomputed weights into the dealing
	// (released under the stream.MaxRecycledCap discipline) and stays
	// uncounted as recycled transport; wcache is the per-shard weight
	// cache keyed on (dispatch count, query time), the float analogue of
	// tsDispatch's sizes cache — it persists between queries, so Words()
	// counts its len(wcache) = G words (DESIGN.md §6).
	wscratch    []float64 //swlint:allow wordsacct recycled dealing transport under stream.MaxRecycledCap
	wcache      []float64
	wcacheTotal float64
	wcacheCount uint64
	wcacheNow   int64
	wcacheOK    bool
}

func newWDispatch[T any](rng *xrand.Rand, horizon int64, g, k int, eps float64, seq bool, weight func(T) float64, shards []stream.WeightedSampler[T]) *wdispatch[T] {
	w := &wdispatch[T]{
		d:      newWeightedDispatcher(shards),
		g:      g,
		k:      k,
		t0:     horizon,
		seq:    seq,
		rng:    rng.Split(),
		weight: weight,
		wests:  make([]*ehist.Weighted, g),
	}
	for i := range w.wests {
		w.wests[i] = ehist.NewWeighted(horizon, eps)
	}
	if !seq {
		w.size = ehist.NewEps(horizon, eps)
	}
	return w
}

func validateWeightedShardParams(name string, horizon int64, g, k int, eps float64, weightNil bool) {
	if horizon <= 0 {
		panic("parallel: " + name + " with window parameter <= 0")
	}
	if g <= 0 {
		panic("parallel: " + name + " with g <= 0")
	}
	if k <= 0 {
		panic("parallel: " + name + " with k <= 0")
	}
	if eps <= 0 || eps >= 1 {
		panic("parallel: " + name + " with eps outside (0,1)")
	}
	if weightNil {
		panic("parallel: " + name + " with nil weight function")
	}
}

// observe computes the element's weight ONCE, feeds the dispatcher-side
// oracles of the shard the element is about to land on, and deals it with
// the weight attached (the shard sampler reuses it instead of re-deriving).
func (w *wdispatch[T]) observe(value T, ts int64) {
	w.observeWeighted(value, w.weight(value), ts)
}

// observeWeighted is the precomputed-weight ingest core: callers that
// already hold the element's weight — the serving layer's HTTP ingest, an
// upstream pipeline stage — skip the weight function entirely; the oracles
// and the dealing see exactly what the derived path would have produced.
func (w *wdispatch[T]) observeWeighted(value T, wt float64, ts int64) {
	// Check BEFORE the oracle updates: a closed-dispatcher panic must not
	// leave the weight histograms counting an element that was never dealt.
	w.d.requireOpen()
	if w.seq {
		w.wests[w.d.next].Observe(int64(w.d.count), wt)
	} else {
		w.size.Observe(ts)
		w.wests[w.d.next].Observe(ts, wt)
		w.now = ts
		w.begun = true
	}
	w.d.observeWeighted(value, wt, ts)
}

// observeBatch computes the batch's weights into the reused scratch and
// forwards through the precomputed-weight batch path.
func (w *wdispatch[T]) observeBatch(batch []stream.Element[T]) {
	if len(batch) == 0 {
		return
	}
	ws := w.wscratch[:0]
	if cap(ws) < len(batch) {
		ws = make([]float64, 0, len(batch))
	}
	for _, e := range batch {
		ws = append(ws, w.weight(e.Value))
	}
	w.observeWeightedBatch(batch, ws)
	// The dealing copied the weights into per-shard slices synchronously,
	// so the scratch is immediately reusable; oversized growth is dropped.
	if cap(ws) > stream.MaxRecycledCap {
		w.wscratch = nil
	} else {
		w.wscratch = ws[:0]
	}
}

// observeWeightedBatch updates the per-shard oracles in dealing order and
// forwards elements and precomputed weights through the weight-aware batch
// dealing; weights[i] belongs to batch[i]. The dealing copies both halves
// into per-shard slices synchronously, so the caller's slices are reusable
// on return.
func (w *wdispatch[T]) observeWeightedBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) != len(weights) {
		panic("parallel: ObserveWeightedBatch with mismatched batch and weight lengths")
	}
	if len(batch) == 0 {
		return
	}
	// As in observeWeighted: refuse before the oracles see the batch.
	w.d.requireOpen()
	shard := w.d.next
	clock := int64(w.d.count)
	for i, e := range batch {
		wt := weights[i]
		if w.seq {
			w.wests[shard].Observe(clock, wt)
			clock++
		} else {
			w.size.Observe(e.TS)
			w.wests[shard].Observe(e.TS, wt)
		}
		shard = (shard + 1) % w.g
	}
	if !w.seq {
		w.now = batch[len(batch)-1].TS
		w.begun = true
	}
	w.d.observeWeightedBatch(batch, weights)
}

// clock returns the oracle clock for a query: the query time clamped to
// the dispatcher's monotone arrival clock (timestamp windows), or the
// latest dealt arrival index (sequence windows).
func (w *wdispatch[T]) clock(now int64) int64 {
	if w.seq {
		return int64(w.d.count) - 1
	}
	if w.begun && now < w.now {
		return w.now
	}
	return now
}

// shardWeights returns the (1±ε) per-shard active-weight estimates at the
// oracle clock `now` and their total, cached per (dispatch count, query
// time) in a reused scratch slice — the weight analogue of
// tsDispatch.weights. Callers mutate the slice only through dropShard.
//
// The per-shard SumAt scans fan across the forShards pool — each histogram
// is shard-local and its queries are read-only (PR 3), so the scans are
// independent — while the total is summed sequentially in shard index
// order, keeping the float accumulation order (hence the cached total, and
// every WR pick derived from it) independent of the fan-out schedule.
func (w *wdispatch[T]) shardWeights(now int64) ([]float64, float64) {
	if w.wcacheOK && w.wcacheCount == w.d.count && w.wcacheNow == now {
		return w.wcache, w.wcacheTotal
	}
	if w.wcache == nil {
		w.wcache = make([]float64, w.g)
	}
	forShards(w.g, func(i int) {
		w.wcache[i] = w.wests[i].SumAt(now)
	})
	total := 0.0
	for _, s := range w.wcache {
		total += s
	}
	w.wcacheCount, w.wcacheNow, w.wcacheTotal, w.wcacheOK = w.d.count, now, total, true
	return w.wcache, total
}

// dropShard zeroes a shard's cached weight after a query discovered it
// empty (possible only within the eps error band) and returns the updated
// total, written through to the cache like tsDispatch.dropShard.
func (w *wdispatch[T]) dropShard(shard int) float64 {
	w.wcacheTotal -= w.wcache[shard]
	w.wcache[shard] = 0
	return w.wcacheTotal
}

// totalWeight is the (1±ε) active-weight oracle at the query clock — the
// estimator layer's scale factor, summed from the per-shard histograms.
func (w *wdispatch[T]) totalWeight(now int64) float64 {
	_, total := w.shardWeights(w.clock(now))
	return total
}

func (w *wdispatch[T]) words(peak bool) int {
	// Shards + per-shard weight estimators + the persistent weight cache
	// (G words once warmed; wscratch is recycled transport, uncounted).
	n := w.d.shardWords(peak) + len(w.wcache)
	for _, est := range w.wests {
		if peak {
			n += est.MaxWords()
		} else {
			n += est.Words()
		}
	}
	if w.size != nil {
		n++ // the clock scalar
		if peak {
			n += w.size.MaxWords()
		} else {
			n += w.size.Words()
		}
	}
	return n
}

// drawSlots is the shared with-replacement query core: k slot picks over
// the cached shard weights at the oracle clock `now`. Every shard's full
// slot vector is fetched exactly once, fanned across the forShards pool
// (the weighted samplers draw only at observe time, so shard queries are
// draw-free and fetch order cannot matter); global slot j reads entry j of
// its chosen shard's vector. Shards whose weight estimate is positive but
// which turn out empty (possible only within the eps error band) have
// their weights dropped in shard index order before any slot pick — the
// float subtraction order is fixed, so the refined total is independent of
// the fan-out schedule. When every weighted shard is empty a linear scan
// finds any live one, so a non-empty window never fails.
func (w *wdispatch[T]) drawSlots(now int64, fetchShard func(shard int) ([]weighted.Item[T], bool)) ([]weighted.Item[T], bool) {
	ws, total := w.shardWeights(now)
	cache := make([][]weighted.Item[T], w.g)
	forShards(w.g, func(shard int) {
		if items, ok := fetchShard(shard); ok {
			cache[shard] = items
		}
	})
	for shard := range cache {
		if len(cache[shard]) == 0 && ws[shard] > 0 {
			total = w.dropShard(shard)
		}
	}
	out := make([]weighted.Item[T], 0, w.k)
	for slot := 0; slot < w.k; slot++ {
		shard := pickShard(w.rng, ws, total)
		if shard < 0 {
			// The estimate put all weight on empty shards; fall back to any
			// live one.
			for shard = 0; shard < w.g; shard++ {
				if len(cache[shard]) > 0 {
					break
				}
			}
			if shard == w.g {
				return nil, false
			}
		}
		it := cache[shard][slot]
		it.Elem = recoverIndex(it.Elem, shard, w.g)
		out = append(out, it)
	}
	return out, true
}

// pickShard draws a shard proportionally to the cached per-shard weights.
// Zero-weight shards are skipped; floating-point slack that consumes every
// positive weight lands on the last positive one. Returns -1 when no
// positive weight remains.
func pickShard(rng *xrand.Rand, weights []float64, total float64) int {
	if !(total > 0) {
		return -1
	}
	u := rng.Float64() * total
	last := -1
	for j, wj := range weights {
		if wj <= 0 {
			continue
		}
		if u < wj {
			return j
		}
		u -= wj
		last = j
	}
	return last
}

// mergeShardItems fans fetchShard across the forShards pool — one
// shard-local, draw-free skyband query per shard, each writing its own
// result slot — then merges the per-shard lists on the calling goroutine
// (mergeTopK), so the merged sample is byte-identical whatever the
// fan-out. ok is false when every shard is empty.
func mergeShardItems[T any](w *wdispatch[T], fetchShard func(shard int) ([]weighted.Item[T], bool)) ([]weighted.Item[T], bool) {
	perShard := make([][]weighted.Item[T], w.g)
	forShards(w.g, func(shard int) {
		if items, ok := fetchShard(shard); ok {
			perShard[shard] = items
		}
	})
	out := mergeTopK(perShard, w.k)
	return out, len(out) > 0
}

// mergeTopK merges the per-shard samples — each in decreasing log-key
// order with shard-local indices, as the weighted skybands return them —
// into the global top-k in the same order: the exact weighted WOR sample
// of the union, in the Efraimidis–Spirakis successive-sampling order. An
// exact key tie ranks the smaller GLOBAL index first, the rule each
// shard's list already follows (dealing keeps arrival order within a
// shard), so the result is a pure function of the per-shard lists. Each
// step scans the g list heads, O(k·g) in all, below the O(g·m) per-shard
// selection that precedes it; only the k emitted items get their global
// index recovered.
func mergeTopK[T any](perShard [][]weighted.Item[T], k int) []weighted.Item[T] {
	g := len(perShard)
	total := 0
	for _, items := range perShard {
		total += len(items)
	}
	if total == 0 {
		return nil
	}
	pos := make([]int, g)
	out := make([]weighted.Item[T], min(k, total))
	for i := range out {
		best := -1
		var bestLK float64
		var bestIdx uint64
		for shard, items := range perShard {
			if pos[shard] == len(items) {
				continue
			}
			it := &items[pos[shard]]
			idx := it.Elem.Index*uint64(g) + uint64(shard)
			if best < 0 || it.LogKey > bestLK || it.LogKey == bestLK && idx < bestIdx {
				best, bestLK, bestIdx = shard, it.LogKey, idx
			}
		}
		it := perShard[best][pos[best]]
		pos[best]++
		it.Elem = recoverIndex(it.Elem, best, g)
		out[i] = it
	}
	return out
}

// itemsToElements strips Items to the bare-element Sample shape.
func itemsToElements[T any](items []weighted.Item[T], ok bool) ([]stream.Element[T], bool) {
	if !ok {
		return nil, false
	}
	out := make([]stream.Element[T], len(items))
	for i, it := range items {
		out[i] = it.Elem
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Timestamp windows
// ---------------------------------------------------------------------------

// ShardedWeightedTSWOR is a G-way parallel weighted k-sample WITHOUT
// replacement over a timestamp window of horizon t0: per-shard
// weighted.TSWOR skybands whose globally comparable log-keys merge into
// the exact Efraimidis–Spirakis top-k at query time. eps is the relative
// error of the embedded weight/size oracles — the SAMPLE itself is exact.
type ShardedWeightedTSWOR[T any] struct {
	w      *wdispatch[T]
	shards []*weighted.TSWOR[T] //swlint:allow wordsacct duplicate typed view of w.d.shards, counted via shardWords
}

// NewShardedWeightedTSWOR builds the sampler and starts its shard workers.
func NewShardedWeightedTSWOR[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64, weight func(T) float64) *ShardedWeightedTSWOR[T] {
	validateWeightedShardParams("NewShardedWeightedTSWOR", t0, g, k, eps, weight == nil)
	s := &ShardedWeightedTSWOR[T]{shards: make([]*weighted.TSWOR[T], g)}
	shards := make([]stream.WeightedSampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = weighted.NewTSWOR[T](rng.Split(), t0, k, eps, weight)
		shards[i] = s.shards[i]
	}
	s.w = newWDispatch(rng, t0, g, k, eps, false, weight, shards)
	return s
}

// Observe routes the next element to its shard (non-decreasing timestamps;
// single producer goroutine).
func (s *ShardedWeightedTSWOR[T]) Observe(value T, ts int64) { s.w.observe(value, ts) }

// ObserveBatch deals a batch across the shards, weights attached.
func (s *ShardedWeightedTSWOR[T]) ObserveBatch(batch []stream.Element[T]) { s.w.observeBatch(batch) }

// ObserveWeighted implements stream.WeightedSampler: feeds one element
// whose weight was already computed upstream (the serving layer's ingest),
// skipping the weight function while leaving oracles and dealing identical.
func (s *ShardedWeightedTSWOR[T]) ObserveWeighted(value T, wt float64, ts int64) {
	s.w.observeWeighted(value, wt, ts)
}

// ObserveWeightedBatch deals a batch with precomputed weights; weights[i]
// belongs to batch[i]. Panics when the slices have different lengths.
func (s *ShardedWeightedTSWOR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	s.w.observeWeightedBatch(batch, weights)
}

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedWeightedTSWOR[T]) Barrier() { s.w.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedWeightedTSWOR[T]) Close() { s.w.d.close() }

// ItemsAt returns the weighted sample over the elements active at time now
// — the min(k, n(t)) active elements with the largest keys across ALL
// shards, in decreasing key order, following the exact weighted WOR law
// (each shard retains its slice's suffix-top-k, so the union's top-k is
// the window's). Panics without a Barrier.
//
// The per-shard skyband queries fan across the forShards pool into
// per-shard result slots, each already a bounded top-k selection in
// decreasing key order; the k-way merge of those lists then runs on the
// calling goroutine, so the answer is the same whatever the fan-out
// schedule. Exact key ties rank the smaller global arrival index first.
func (s *ShardedWeightedTSWOR[T]) ItemsAt(now int64) ([]weighted.Item[T], bool) {
	s.w.d.requireSynced()
	now = s.w.clock(now)
	return mergeShardItems(s.w, func(shard int) ([]weighted.Item[T], bool) {
		return s.shards[shard].ItemsAt(now)
	})
}

// Items returns the sample at the latest dispatched timestamp.
func (s *ShardedWeightedTSWOR[T]) Items() ([]weighted.Item[T], bool) {
	if !s.w.begun {
		return nil, false
	}
	return s.ItemsAt(s.w.now)
}

// SampleAt implements stream.TimedSampler.
func (s *ShardedWeightedTSWOR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	return itemsToElements(s.ItemsAt(now))
}

// Sample implements stream.Sampler: the sample at the latest dispatched
// timestamp.
func (s *ShardedWeightedTSWOR[T]) Sample() ([]stream.Element[T], bool) {
	return itemsToElements(s.Items())
}

// SizeAt returns the (1±eps) estimate of n(t) at time now, clamped to the
// arrival count. Read-only in the clock sense (dispatcher-side state; no
// Barrier needed), but producer-goroutine only like every method.
func (s *ShardedWeightedTSWOR[T]) SizeAt(now int64) uint64 {
	n := s.w.size.EstimateAt(now)
	if n > s.w.d.count {
		n = s.w.d.count
	}
	return n
}

// TotalWeightAt returns the (1±eps) estimate of the total active weight at
// time now — the per-shard weight oracles summed, the estimator layer's
// scale factor. Read-only in the clock sense; producer-goroutine only
// (the underlying cache is the dispatch's query scratch).
func (s *ShardedWeightedTSWOR[T]) TotalWeightAt(now int64) float64 { return s.w.totalWeight(now) }

// ShardWeightsAt returns a copy of the per-shard (1±eps) active-weight
// estimates at time now (diagnostics; experiment E19 checks each entry
// against its shard slice's ground-truth weight).
func (s *ShardedWeightedTSWOR[T]) ShardWeightsAt(now int64) []float64 {
	ws, _ := s.w.shardWeights(s.w.clock(now))
	return append([]float64(nil), ws...)
}

// K returns the target sample size; G the shard count; Horizon t0; Count
// the number of elements dispatched.
func (s *ShardedWeightedTSWOR[T]) K() int         { return s.w.k }
func (s *ShardedWeightedTSWOR[T]) G() int         { return s.w.g }
func (s *ShardedWeightedTSWOR[T]) Horizon() int64 { return s.w.t0 }
func (s *ShardedWeightedTSWOR[T]) Count() uint64  { return s.w.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedWeightedTSWOR[T]) Words() int    { return s.w.words(false) }
func (s *ShardedWeightedTSWOR[T]) MaxWords() int { return s.w.words(true) }

// ShardedWeightedTSWR is a G-way parallel weighted sampler WITH
// replacement over a timestamp window of horizon t0: slot j picks a shard
// proportionally to its (1±eps) active-weight total — the per-shard
// exponential histograms over weights — and takes the shard's exact slot
// draw, so each active element is returned with probability (1±O(eps))·w/W.
type ShardedWeightedTSWR[T any] struct {
	w      *wdispatch[T]
	shards []*weighted.TSWR[T] //swlint:allow wordsacct duplicate typed view of w.d.shards, counted via shardWords
}

// NewShardedWeightedTSWR builds the sampler and starts its shard workers.
func NewShardedWeightedTSWR[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64, weight func(T) float64) *ShardedWeightedTSWR[T] {
	validateWeightedShardParams("NewShardedWeightedTSWR", t0, g, k, eps, weight == nil)
	s := &ShardedWeightedTSWR[T]{shards: make([]*weighted.TSWR[T], g)}
	shards := make([]stream.WeightedSampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = weighted.NewTSWR[T](rng.Split(), t0, k, eps, weight)
		shards[i] = s.shards[i]
	}
	s.w = newWDispatch(rng, t0, g, k, eps, false, weight, shards)
	return s
}

// Observe routes the next element to its shard.
func (s *ShardedWeightedTSWR[T]) Observe(value T, ts int64) { s.w.observe(value, ts) }

// ObserveBatch deals a batch across the shards, weights attached.
func (s *ShardedWeightedTSWR[T]) ObserveBatch(batch []stream.Element[T]) { s.w.observeBatch(batch) }

// ObserveWeighted implements stream.WeightedSampler (precomputed weight).
func (s *ShardedWeightedTSWR[T]) ObserveWeighted(value T, wt float64, ts int64) {
	s.w.observeWeighted(value, wt, ts)
}

// ObserveWeightedBatch deals a batch with precomputed weights.
func (s *ShardedWeightedTSWR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	s.w.observeWeightedBatch(batch, weights)
}

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedWeightedTSWR[T]) Barrier() { s.w.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedWeightedTSWR[T]) Close() { s.w.d.close() }

// ItemsAt returns k weighted draws with replacement over the elements
// active at time now — the shared drawSlots core over this sampler's
// per-shard slot vectors. Panics without a Barrier.
func (s *ShardedWeightedTSWR[T]) ItemsAt(now int64) ([]weighted.Item[T], bool) {
	s.w.d.requireSynced()
	now = s.w.clock(now)
	return s.w.drawSlots(now, func(shard int) ([]weighted.Item[T], bool) {
		return s.shards[shard].ItemsAt(now)
	})
}

// Items returns the draws at the latest dispatched timestamp.
func (s *ShardedWeightedTSWR[T]) Items() ([]weighted.Item[T], bool) {
	if !s.w.begun {
		return nil, false
	}
	return s.ItemsAt(s.w.now)
}

// SampleAt implements stream.TimedSampler.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedWeightedTSWR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	return itemsToElements(s.ItemsAt(now))
}

// Sample implements stream.Sampler.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedWeightedTSWR[T]) Sample() ([]stream.Element[T], bool) {
	return itemsToElements(s.Items())
}

// SizeAt returns the (1±eps) estimate of n(t) at time now, clamped to the
// arrival count. Read-only in the clock sense; producer-goroutine only.
func (s *ShardedWeightedTSWR[T]) SizeAt(now int64) uint64 {
	n := s.w.size.EstimateAt(now)
	if n > s.w.d.count {
		n = s.w.d.count
	}
	return n
}

// TotalWeightAt returns the (1±eps) active-weight total at time now
// (clock-read-only; producer-goroutine only).
func (s *ShardedWeightedTSWR[T]) TotalWeightAt(now int64) float64 { return s.w.totalWeight(now) }

// K returns the number of sample slots; G the shard count; Horizon t0;
// Count the number of elements dispatched.
func (s *ShardedWeightedTSWR[T]) K() int         { return s.w.k }
func (s *ShardedWeightedTSWR[T]) G() int         { return s.w.g }
func (s *ShardedWeightedTSWR[T]) Horizon() int64 { return s.w.t0 }
func (s *ShardedWeightedTSWR[T]) Count() uint64  { return s.w.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedWeightedTSWR[T]) Words() int    { return s.w.words(false) }
func (s *ShardedWeightedTSWR[T]) MaxWords() int { return s.w.words(true) }

// ---------------------------------------------------------------------------
// Sequence windows
// ---------------------------------------------------------------------------

// ShardedWeightedSeqWOR is a G-way parallel weighted k-sample WITHOUT
// replacement over a sequence window of n elements (n divisible by G).
// Composition is EXACT: the merged per-shard skybands' top-k by log-key is
// the window's Efraimidis–Spirakis k-sample — no estimate anywhere on the
// sample path.
type ShardedWeightedSeqWOR[T any] struct {
	w      *wdispatch[T]
	n      uint64
	shards []*weighted.WOR[T] //swlint:allow wordsacct duplicate typed view of w.d.shards, counted via shardWords
}

// NewShardedWeightedSeqWOR builds the sampler and starts its shard
// workers. n must be divisible by g.
func NewShardedWeightedSeqWOR[T any](rng *xrand.Rand, n uint64, g, k int, eps float64, weight func(T) float64) *ShardedWeightedSeqWOR[T] {
	validateWeightedShardParams("NewShardedWeightedSeqWOR", int64(n), g, k, eps, weight == nil)
	if n%uint64(g) != 0 {
		panic("parallel: window size must be a positive multiple of the shard count")
	}
	s := &ShardedWeightedSeqWOR[T]{n: n, shards: make([]*weighted.WOR[T], g)}
	shards := make([]stream.WeightedSampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = weighted.NewWOR[T](rng.Split(), n/uint64(g), k, weight)
		shards[i] = s.shards[i]
	}
	s.w = newWDispatch(rng, int64(n), g, k, eps, true, weight, shards)
	return s
}

// Observe routes the next element to its shard.
func (s *ShardedWeightedSeqWOR[T]) Observe(value T, ts int64) { s.w.observe(value, ts) }

// ObserveBatch deals a batch across the shards, weights attached.
func (s *ShardedWeightedSeqWOR[T]) ObserveBatch(batch []stream.Element[T]) { s.w.observeBatch(batch) }

// ObserveWeighted implements stream.WeightedSampler (precomputed weight).
func (s *ShardedWeightedSeqWOR[T]) ObserveWeighted(value T, wt float64, ts int64) {
	s.w.observeWeighted(value, wt, ts)
}

// ObserveWeightedBatch deals a batch with precomputed weights.
func (s *ShardedWeightedSeqWOR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	s.w.observeWeightedBatch(batch, weights)
}

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedWeightedSeqWOR[T]) Barrier() { s.w.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedWeightedSeqWOR[T]) Close() { s.w.d.close() }

// Items returns the weighted sample over the last min(count, n) elements —
// the exact merged top-k in decreasing key order. The per-shard skyband
// queries fan across the forShards pool and their sorted lists are k-way
// merged on the calling goroutine, ties by global index (see
// ShardedWeightedTSWOR.ItemsAt). Panics without a Barrier.
func (s *ShardedWeightedSeqWOR[T]) Items() ([]weighted.Item[T], bool) {
	s.w.d.requireSynced()
	return mergeShardItems(s.w, func(shard int) ([]weighted.Item[T], bool) {
		return s.shards[shard].Items()
	})
}

// Sample implements stream.Sampler.
func (s *ShardedWeightedSeqWOR[T]) Sample() ([]stream.Element[T], bool) {
	return itemsToElements(s.Items())
}

// TotalWeight returns the (1±eps) estimate of the window's total weight
// (per-shard weight oracles, clocked on the arrival index).
// Clock-read-only; producer-goroutine only.
func (s *ShardedWeightedSeqWOR[T]) TotalWeight() float64 { return s.w.totalWeight(0) }

// K returns the target sample size; G the shard count; N the window size;
// Count the number of elements dispatched.
func (s *ShardedWeightedSeqWOR[T]) K() int        { return s.w.k }
func (s *ShardedWeightedSeqWOR[T]) G() int        { return s.w.g }
func (s *ShardedWeightedSeqWOR[T]) N() uint64     { return s.n }
func (s *ShardedWeightedSeqWOR[T]) Count() uint64 { return s.w.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedWeightedSeqWOR[T]) Words() int    { return s.w.words(false) }
func (s *ShardedWeightedSeqWOR[T]) MaxWords() int { return s.w.words(true) }

// ShardedWeightedSeqWR is a G-way parallel weighted sampler WITH
// replacement over a sequence window of n elements: slot j picks a shard
// proportionally to its (1±eps) active-weight total (per-shard weight
// histograms clocked on the arrival index) and takes the shard's exact
// slot draw.
type ShardedWeightedSeqWR[T any] struct {
	w      *wdispatch[T]
	n      uint64
	shards []*weighted.WR[T] //swlint:allow wordsacct duplicate typed view of w.d.shards, counted via shardWords
}

// NewShardedWeightedSeqWR builds the sampler and starts its shard workers.
// n must be divisible by g.
func NewShardedWeightedSeqWR[T any](rng *xrand.Rand, n uint64, g, k int, eps float64, weight func(T) float64) *ShardedWeightedSeqWR[T] {
	validateWeightedShardParams("NewShardedWeightedSeqWR", int64(n), g, k, eps, weight == nil)
	if n%uint64(g) != 0 {
		panic("parallel: window size must be a positive multiple of the shard count")
	}
	s := &ShardedWeightedSeqWR[T]{n: n, shards: make([]*weighted.WR[T], g)}
	shards := make([]stream.WeightedSampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = weighted.NewWR[T](rng.Split(), n/uint64(g), k, weight)
		shards[i] = s.shards[i]
	}
	s.w = newWDispatch(rng, int64(n), g, k, eps, true, weight, shards)
	return s
}

// Observe routes the next element to its shard.
func (s *ShardedWeightedSeqWR[T]) Observe(value T, ts int64) { s.w.observe(value, ts) }

// ObserveBatch deals a batch across the shards, weights attached.
func (s *ShardedWeightedSeqWR[T]) ObserveBatch(batch []stream.Element[T]) { s.w.observeBatch(batch) }

// ObserveWeighted implements stream.WeightedSampler (precomputed weight).
func (s *ShardedWeightedSeqWR[T]) ObserveWeighted(value T, wt float64, ts int64) {
	s.w.observeWeighted(value, wt, ts)
}

// ObserveWeightedBatch deals a batch with precomputed weights.
func (s *ShardedWeightedSeqWR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	s.w.observeWeightedBatch(batch, weights)
}

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedWeightedSeqWR[T]) Barrier() { s.w.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedWeightedSeqWR[T]) Close() { s.w.d.close() }

// Items returns k weighted draws with replacement over the last
// min(count, n) elements — the shared drawSlots core; a shard that
// received no elements yet (warm-up with count < g) has its weight
// dropped and the slot redrawn. Panics without a Barrier.
func (s *ShardedWeightedSeqWR[T]) Items() ([]weighted.Item[T], bool) {
	s.w.d.requireSynced()
	if s.w.d.count == 0 {
		return nil, false
	}
	return s.w.drawSlots(s.w.clock(0), func(shard int) ([]weighted.Item[T], bool) {
		return s.shards[shard].Items()
	})
}

// Sample implements stream.Sampler.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedWeightedSeqWR[T]) Sample() ([]stream.Element[T], bool) {
	return itemsToElements(s.Items())
}

// TotalWeight returns the (1±eps) estimate of the window's total weight.
func (s *ShardedWeightedSeqWR[T]) TotalWeight() float64 { return s.w.totalWeight(0) }

// K returns the number of sample slots; G the shard count; N the window
// size; Count the number of elements dispatched.
func (s *ShardedWeightedSeqWR[T]) K() int        { return s.w.k }
func (s *ShardedWeightedSeqWR[T]) G() int        { return s.w.g }
func (s *ShardedWeightedSeqWR[T]) N() uint64     { return s.n }
func (s *ShardedWeightedSeqWR[T]) Count() uint64 { return s.w.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedWeightedSeqWR[T]) Words() int    { return s.w.words(false) }
func (s *ShardedWeightedSeqWR[T]) MaxWords() int { return s.w.words(true) }

// Compile-time conformance: the sharded weighted wrappers speak the same
// unified interface as every other substrate — including the
// precomputed-weight ingest the serving layer feeds.
var (
	_ stream.WeightedSampler[int] = (*ShardedWeightedSeqWOR[int])(nil)
	_ stream.WeightedSampler[int] = (*ShardedWeightedSeqWR[int])(nil)
	_ stream.WeightedSampler[int] = (*ShardedWeightedTSWOR[int])(nil)
	_ stream.WeightedSampler[int] = (*ShardedWeightedTSWR[int])(nil)
	_ stream.TimedSampler[int]    = (*ShardedWeightedTSWOR[int])(nil)
	_ stream.TimedSampler[int]    = (*ShardedWeightedTSWR[int])(nil)
)
