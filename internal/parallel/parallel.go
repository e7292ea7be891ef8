// Package parallel provides sharded, goroutine-parallel ingest wrappers
// around the window samplers for streams too fast for one core.
//
// Correctness rests on a small arithmetic fact: if elements are dealt
// round-robin to G shards, then the active window always splits across the
// shards into exactly each shard's MOST RECENT elements — so a shard-local
// sampler over its slice composes into a global sample by first picking a
// shard with probability proportional to its in-window count, then asking
// the shard.
//
//   - Sequence windows (window size n divisible by G): every window of the
//     last n elements holds exactly n/G elements per shard, and those are
//     the n/G most recent elements of that shard. Shard-local Theorem
//     2.1/2.2 samplers over n/G cover precisely their slices and the
//     weighted pick is EXACT (during warm-up shard windows differ by at
//     most one element and the weights remain exact).
//   - Timestamp windows (horizon t0): a shard's active elements are its
//     elements with timestamps in the window — again exactly its slice of
//     the global window. Shard-local Theorem 3.9/4.4 samplers with the same
//     horizon cover their slices exactly, but the per-shard ACTIVE COUNTS
//     cannot be tracked exactly in sublinear memory (the Datar–Gionis–
//     Indyk–Motwani lower bound the paper cites), so the dispatcher keeps
//     one exponential-histogram counter: the window is a contiguous global
//     index range [a, b], â = count - n̂ estimates a within (1±ε), and the
//     per-shard counts follow arithmetically. Within-shard sampling stays
//     exact; only the cross-shard allocation carries the ε error.
//
// Ingest runs one goroutine per shard fed by buffered channels, dealing
// either single elements or pre-split batches (ObserveBatch splits a batch
// round-robin and forwards each slice to its shard's batched hot path, so
// the per-element channel overhead is amortized too). Barrier() flushes all
// channels so queries observe a consistent prefix; a query then runs on
// the calling goroutine, one sub-query per shard in shard order. This is a
// checkpointed model: queries between barriers would race with in-flight
// elements, so Sample panics unless the caller holds a barrier. The exported
// Barrier/Close hooks are what the layers above build their safety on —
// the public wrappers and the HTTP serving layer barrier automatically
// before every query, and shutdown drains a final barrier before Close
// stops the workers (DESIGN.md §7); note that ANY read of shard sampler
// state, including Words(), needs the same discipline.
package parallel

import (
	"sync"

	"slidingsample/internal/core"
	"slidingsample/internal/ehist"
	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// msg is one channel message. The weight fields cost unweighted
// dispatchers ~32 idle bytes per buffered slot — accepted so weighted and
// unweighted dispatch share one channel type and one worker loop. There
// is no "weighted single element" flag: on a weighted dispatcher EVERY
// bare element arrives through observeWeighted (wdispatch never uses the
// plain observe path), so wshards being set is the discriminator.
type msg[T any] struct {
	value   T
	ts      int64
	weight  float64             // weighted dispatch: the element's precomputed weight
	batch   []stream.Element[T] // non-nil: a pre-split shard batch
	weights []float64           // non-nil with batch: the batch's precomputed weights
	barrier *sync.WaitGroup     // non-nil: flush marker, not an element
}

// dispatcher is the shared round-robin ingest machinery: G worker
// goroutines, one buffered channel each, dealing, barriers and shutdown.
// The shards are held behind the unified stream.Sampler interface; the
// concrete sharded samplers keep their own typed views for querying.
//
// The same machinery carries WEIGHTED dispatch: when built over
// stream.WeightedSampler shards, elements and batches travel with
// precomputed weights (the weighted sharded samplers compute each weight
// once for their dispatcher-side per-shard weight oracles and forward it),
// dealt through the identical round-robin split and double-buffered
// recycling — the weight slices are just a parallel half of each buffer
// generation.
type dispatcher[T any] struct {
	g       int
	shards  []stream.Sampler[T]
	wshards []stream.WeightedSampler[T] // non-nil: weighted dispatch enabled
	chans   []chan msg[T]
	// bufs double-buffers the per-shard batch slices: two generations of G
	// buffers each. A generation is refilled ONLY when every slice cut from
	// it has been flushed by a Barrier — workers never see a reused slice
	// before the next Barrier, which is the whole safety argument (no
	// per-message handshake needed, so the hot path stays channel-free).
	// Between barriers the two clean generations cover two batches and
	// further ones fall back to fresh right-sized allocations; under the
	// checkpointed query cadence (Sample requires a Barrier) batched ingest
	// is allocation-free in steady state. wbufs is the weight half of each
	// generation (weighted dispatch only), recycled under the same
	// dirty/clean flags since element and weight slices are cut together.
	bufs   [2][][]stream.Element[T]
	wbufs  [2][][]float64
	dirty  [2]bool
	wg     sync.WaitGroup
	next   int
	count  uint64
	synced bool
	closed bool
}

func newDispatcher[T any](shards []stream.Sampler[T]) *dispatcher[T] {
	return startDispatcher(shards, nil)
}

// newWeightedDispatcher builds a dispatcher whose shards also accept
// precomputed weights; the unweighted paths keep working unchanged.
func newWeightedDispatcher[T any](wshards []stream.WeightedSampler[T]) *dispatcher[T] {
	shards := make([]stream.Sampler[T], len(wshards))
	for i, sh := range wshards {
		shards[i] = sh
	}
	return startDispatcher(shards, wshards)
}

// startDispatcher is the shared construction: buffer generations, channel
// sizing and worker spawning are identical for weighted and unweighted
// dispatch (wshards non-nil is the only difference).
func startDispatcher[T any](shards []stream.Sampler[T], wshards []stream.WeightedSampler[T]) *dispatcher[T] {
	d := &dispatcher[T]{
		g:       len(shards),
		shards:  shards,
		wshards: wshards,
		chans:   make([]chan msg[T], len(shards)),
		synced:  true,
	}
	for j := range d.bufs {
		d.bufs[j] = make([][]stream.Element[T], len(shards))
		if wshards != nil {
			d.wbufs[j] = make([][]float64, len(shards))
		}
	}
	for i := range shards {
		d.chans[i] = make(chan msg[T], 1024)
		d.wg.Add(1)
		go d.work(i)
	}
	return d
}

// work is shard i's ingest goroutine: it drains the shard's channel,
// applying each message through the matching ingest path.
func (d *dispatcher[T]) work(i int) {
	defer d.wg.Done()
	shard := d.shards[i]
	var wshard stream.WeightedSampler[T]
	if d.wshards != nil {
		wshard = d.wshards[i]
	}
	for m := range d.chans[i] {
		switch {
		case m.barrier != nil:
			m.barrier.Done()
		case m.weights != nil:
			wshard.ObserveWeightedBatch(m.batch, m.weights)
		case m.batch != nil:
			shard.ObserveBatch(m.batch)
		case wshard != nil:
			// Weighted dispatchers route every bare element through
			// observeWeighted, so this case IS the weighted single element.
			wshard.ObserveWeighted(m.value, m.weight, m.ts)
		default:
			shard.Observe(m.value, m.ts)
		}
	}
}

// requireOpen turns ingest-after-Close from a bare runtime "send on
// closed channel" crash into a named programmer error, BEFORE any state
// (dispatcher or caller-side oracles) is touched.
func (d *dispatcher[T]) requireOpen() {
	if d.closed {
		panic("parallel: Observe after Close")
	}
}

// observe routes the next element to its shard. Safe to call from ONE
// producer goroutine (the dispatch order defines the stream order).
func (d *dispatcher[T]) observe(value T, ts int64) {
	d.requireOpen()
	d.chans[d.next] <- msg[T]{value: value, ts: ts}
	d.next = (d.next + 1) % d.g
	d.count++
	d.synced = false
}

// observeWeighted routes the next element and its precomputed weight to its
// shard. Weighted dispatchers must use this for EVERY bare element — the
// worker loop relies on it (see msg).
func (d *dispatcher[T]) observeWeighted(value T, w float64, ts int64) {
	d.requireOpen()
	d.chans[d.next] <- msg[T]{value: value, ts: ts, weight: w}
	d.next = (d.next + 1) % d.g
	d.count++
	d.synced = false
}

// observeBatch deals a batch round-robin: element i goes to shard
// (next+i) mod G, preserving exactly the order single-element dispatch
// would use, but each shard receives one message carrying its whole slice.
// Shard slices come from a clean (barrier-flushed) buffer generation when
// one is available and are allocated right-sized otherwise, so ingest
// interleaved with queries reuses the same 2G buffers forever.
func (d *dispatcher[T]) observeBatch(batch []stream.Element[T]) {
	d.dealBatch(batch, nil)
}

// observeWeightedBatch deals a batch together with its precomputed
// weights; weights[i] belongs to batch[i] and travels to the same shard
// (weighted dispatchers only).
func (d *dispatcher[T]) observeWeightedBatch(batch []stream.Element[T], weights []float64) {
	d.dealBatch(batch, weights)
}

// dealBatch is the shared round-robin batch dealing. With weights non-nil
// the weight slices are split alongside the element slices, drawn from the
// same buffer generation — the element and weight halves of a generation
// are always cut and flushed together, so one set of dirty flags covers
// both.
func (d *dispatcher[T]) dealBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) == 0 {
		return
	}
	d.requireOpen()
	per := len(batch)/d.g + 1
	gen := -1
	var split [][]stream.Element[T]
	var wsplit [][]float64
	switch {
	case !d.dirty[0]:
		gen = 0
	case !d.dirty[1]:
		gen = 1
	}
	if gen >= 0 {
		d.dirty[gen] = true
		split = d.bufs[gen]
		for i := range split {
			if cap(split[i]) == 0 {
				split[i] = make([]stream.Element[T], 0, per)
			} else {
				split[i] = split[i][:0]
			}
		}
		if weights != nil {
			wsplit = d.wbufs[gen]
			for i := range wsplit {
				if cap(wsplit[i]) == 0 {
					wsplit[i] = make([]float64, 0, per)
				} else {
					wsplit[i] = wsplit[i][:0]
				}
			}
		}
	} else {
		// Both generations have un-barriered batches in flight: fall back to
		// fresh one-off slices (never retained), exactly like unrecycled
		// dealing — reuse here could hand a worker a slice it is reading.
		split = make([][]stream.Element[T], d.g)
		for i := range split {
			split[i] = make([]stream.Element[T], 0, per)
		}
		if weights != nil {
			wsplit = make([][]float64, d.g)
			for i := range wsplit {
				wsplit[i] = make([]float64, 0, per)
			}
		}
	}
	shard := d.next
	if weights == nil {
		for _, e := range batch {
			split[shard] = append(split[shard], e)
			shard = (shard + 1) % d.g
		}
	} else {
		for i, e := range batch {
			split[shard] = append(split[shard], e)
			wsplit[shard] = append(wsplit[shard], weights[i])
			shard = (shard + 1) % d.g
		}
	}
	for i, sub := range split {
		if len(sub) > 0 {
			m := msg[T]{batch: sub}
			if weights != nil {
				m.weights = wsplit[i]
			}
			d.chans[i] <- m
		}
	}
	if gen >= 0 {
		// Keep the (possibly grown) headers for reuse after the next
		// barrier; the slices keep their dispatched length so the barrier
		// can clear exactly the elements the workers consumed. Oversized
		// backing arrays are dropped rather than pinned (the shared
		// stream.MaxRecycledCap discipline).
		for i := range split {
			if cap(split[i]) > stream.MaxRecycledCap {
				split[i] = nil
			}
		}
		d.bufs[gen] = split
		if weights != nil {
			for i := range wsplit {
				if cap(wsplit[i]) > stream.MaxRecycledCap {
					wsplit[i] = nil
				}
			}
			d.wbufs[gen] = wsplit
		}
	}
	d.next = shard
	d.count += uint64(len(batch))
	d.synced = false
}

// barrier flushes every shard channel; after it returns, all elements
// dispatched so far are reflected in the shard samplers and the dispatched
// batch buffers are safe to reuse (cleared here, off the hot path, so
// recycled buffers do not retain references to processed payloads). After
// close it is a no-op: the final flush already ran, and the public
// wrappers barrier on every query — a closed, fully-flushed sampler must
// stay queryable.
func (d *dispatcher[T]) barrier() {
	if d.closed {
		return
	}
	var wg sync.WaitGroup
	wg.Add(d.g)
	for _, ch := range d.chans {
		ch <- msg[T]{barrier: &wg}
	}
	wg.Wait()
	for j := range d.bufs {
		if !d.dirty[j] {
			continue
		}
		for i := range d.bufs[j] {
			clear(d.bufs[j][i])
		}
		// The weight halves (wbufs) hold no pointers, so they need no
		// clearing to release payloads; reuse truncates them to length 0.
		d.dirty[j] = false
	}
	d.synced = true
}

// close shuts the workers down (after a flush). Shards remain queryable;
// repeated close is a no-op.
func (d *dispatcher[T]) close() {
	if d.closed {
		return
	}
	d.barrier()
	d.closed = true
	for _, ch := range d.chans {
		close(ch)
	}
	d.wg.Wait()
}

func (d *dispatcher[T]) requireSynced() {
	if !d.synced {
		panic("parallel: Sample without Barrier after Observe")
	}
}

// shardWords sums a footprint accessor over the shards plus the dispatcher
// scalars (g, next, count — channel buffers are transport, not sampler
// state, and the checkpointed query model guarantees they are empty at
// every measurement point).
func (d *dispatcher[T]) shardWords(peak bool) int {
	w := 3
	for _, sh := range d.shards {
		if peak {
			w += sh.MaxWords()
		} else {
			w += sh.Words()
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// Sequence-based windows
// ---------------------------------------------------------------------------

// ShardedSeqWR is a G-way parallel with-replacement sampler over a
// sequence-based window of n elements. The global sample law is EXACTLY the
// sequential Theorem 2.1 law.
type ShardedSeqWR[T any] struct {
	d   *dispatcher[T]
	g   int
	k   int
	per uint64 // n / g
	rng *xrand.Rand
	//swlint:allow wordsacct duplicate typed view of d.shards, counted via d.shardWords
	seq []*core.SeqWR[T]
}

// NewShardedSeqWR builds the sampler and starts its shard workers.
// n must be divisible by g; k is the number of independent samples.
func NewShardedSeqWR[T any](rng *xrand.Rand, n uint64, g, k int) *ShardedSeqWR[T] {
	if g <= 0 {
		panic("parallel: NewShardedSeqWR with g <= 0")
	}
	if n == 0 || n%uint64(g) != 0 {
		panic("parallel: window size must be a positive multiple of the shard count")
	}
	if k <= 0 {
		panic("parallel: NewShardedSeqWR with k <= 0")
	}
	s := &ShardedSeqWR[T]{
		g:   g,
		k:   k,
		per: n / uint64(g),
		rng: rng.Split(),
		seq: make([]*core.SeqWR[T], g),
	}
	shards := make([]stream.Sampler[T], g)
	for i := 0; i < g; i++ {
		s.seq[i] = core.NewSeqWR[T](rng.Split(), s.per, k)
		shards[i] = s.seq[i]
	}
	s.d = newDispatcher(shards)
	return s
}

// Observe routes the next element to its shard.
func (s *ShardedSeqWR[T]) Observe(value T, ts int64) { s.d.observe(value, ts) }

// ObserveBatch deals a batch across the shards, one channel message and one
// batched-ingest call per shard.
func (s *ShardedSeqWR[T]) ObserveBatch(batch []stream.Element[T]) { s.d.observeBatch(batch) }

// Barrier flushes every shard channel; after it returns, all elements
// observed so far are reflected in the shard samplers and Sample may be
// called.
func (s *ShardedSeqWR[T]) Barrier() { s.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedSeqWR[T]) Close() { s.d.close() }

// windowSizes returns each shard's in-window element count and the total.
func (s *ShardedSeqWR[T]) windowSizes() ([]uint64, uint64) {
	sizes := make([]uint64, s.g)
	var total uint64
	for i, sh := range s.seq {
		c := sh.Count()
		if c > s.per {
			c = s.per
		}
		sizes[i] = c
		total += c
	}
	return sizes, total
}

// Sample returns k elements, each uniform over the global window of the
// last min(count, n) elements. It panics if called without a Barrier since
// the last Observe (the shard states would be racy and possibly skewed).
//
// Every shard's slot vector is fetched exactly once, in shard order (SeqWR
// queries are read-only and draw-free); the slot picks then run on the
// dispatcher rng, global slot j reading entry j of its chosen shard's
// vector — entries are mutually independent, so the global law is
// unchanged.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedSeqWR[T]) Sample() ([]stream.Element[T], bool) {
	s.d.requireSynced()
	sizes, total := s.windowSizes()
	if total == 0 {
		return nil, false
	}
	vecs := make([][]stream.Element[T], s.g)
	for shard := range s.g {
		if es, ok := s.seq[shard].Sample(); ok {
			vecs[shard] = es
		}
	}
	out := make([]stream.Element[T], 0, s.k)
	for slot := 0; slot < s.k; slot++ {
		u := s.rng.Uint64n(total)
		shard := 0
		for u >= sizes[shard] {
			u -= sizes[shard]
			shard++
		}
		if vecs[shard] == nil {
			// Unreachable: sizes[shard] > 0 comes from the shard's exact
			// Count, which guarantees its Sample succeeds.
			return nil, false
		}
		out = append(out, recoverIndex(vecs[shard][slot], shard, s.g))
	}
	return out, true
}

// K returns the number of sample copies.
func (s *ShardedSeqWR[T]) K() int { return s.k }

// Count returns the number of elements dispatched.
func (s *ShardedSeqWR[T]) Count() uint64 { return s.d.count }

// Words implements stream.MemoryReporter.
func (s *ShardedSeqWR[T]) Words() int { return s.d.shardWords(false) }

// MaxWords implements stream.MemoryReporter.
func (s *ShardedSeqWR[T]) MaxWords() int { return s.d.shardWords(true) }

// ---------------------------------------------------------------------------
// Timestamp-based windows
// ---------------------------------------------------------------------------

// tsDispatch is the shared state of the timestamp-window sharded samplers:
// the dispatcher plus the exponential-histogram estimate of the global
// active count that drives the cross-shard weighting.
type tsDispatch[T any] struct {
	d     *dispatcher[T]
	g     int
	k     int
	t0    int64
	rng   *xrand.Rand
	est   *ehist.Counter
	now   int64
	begun bool
	// The cross-shard weight cache: between a (dispatch count, query time)
	// change, every SampleAt re-derived the same per-shard counts — a fresh
	// sizes allocation plus an EstimateAt bucket scan per query, pure waste
	// under the serving cadence of many queries per checkpoint. sizes is a
	// scratch slice reused across queries; the cache key is (count, now).
	// Unlike the recycled dealing buffers, this cache persists between
	// queries, so Words() counts its len(sizes) = G words (DESIGN.md §6).
	// BENCH_4.json has the before/after for the caching itself.
	sizes      []uint64
	cacheCount uint64
	cacheNow   int64
	cacheTotal uint64
	cacheOK    bool
}

func newTSDispatch[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64, shards []stream.Sampler[T]) *tsDispatch[T] {
	return &tsDispatch[T]{
		d:   newDispatcher(shards),
		g:   g,
		k:   k,
		t0:  t0,
		rng: rng.Split(),
		est: ehist.NewEps(t0, eps),
	}
}

func validateTSShardParams(t0 int64, g, k int, eps float64) {
	if t0 <= 0 {
		panic("parallel: timestamp shard with t0 <= 0")
	}
	if g <= 0 {
		panic("parallel: timestamp shard with g <= 0")
	}
	if k <= 0 {
		panic("parallel: timestamp shard with k <= 0")
	}
	if eps <= 0 || eps >= 1 {
		panic("parallel: timestamp shard with eps outside (0,1)")
	}
}

// observe feeds the estimator on the dispatcher's goroutine and deals the
// element. The estimator's Observe costs amortized O(1) comparisons and
// O(1/eps) bucket copies for its cascade, plus a shift of its B =
// O(eps^-1·log n) buckets on an arrival that expires some (see the ehist
// package doc).
func (t *tsDispatch[T]) observe(value T, ts int64) {
	t.est.Observe(ts)
	t.now = ts
	t.begun = true
	t.d.observe(value, ts)
}

func (t *tsDispatch[T]) observeBatch(batch []stream.Element[T]) {
	for _, e := range batch {
		t.est.Observe(e.TS)
	}
	if len(batch) > 0 {
		t.now = batch[len(batch)-1].TS
		t.begun = true
	}
	t.d.observeBatch(batch)
}

// weights returns the estimated per-shard active counts at time now and
// their total. Exact up to the (1±ε) estimate of the window's oldest index:
// the active window is the contiguous global index range [â, count), and
// round-robin dealing puts ⌈·⌉/⌊·⌋ of it on each shard deterministically.
// The result is cached per (dispatch count, query time) in a reused scratch
// slice: repeated queries at one checkpoint — the serving cadence — skip
// both the allocation and the estimator scan. Callers must treat the slice
// as owned by the dispatch (mutate it only through dropShard).
func (t *tsDispatch[T]) weights(now int64) ([]uint64, uint64) {
	if t.cacheOK && t.cacheCount == t.d.count && t.cacheNow == now {
		return t.sizes, t.cacheTotal
	}
	nHat := t.est.EstimateAt(now)
	if nHat > t.d.count {
		nHat = t.d.count
	}
	if t.sizes == nil {
		t.sizes = make([]uint64, t.g)
	}
	aHat := t.d.count - nHat
	base := nHat / uint64(t.g)
	rem := nHat % uint64(t.g)
	for i := range t.sizes {
		t.sizes[i] = base
		// The rem extra elements land on shards â mod g, â+1 mod g, ...
		if (uint64(i)+uint64(t.g)-aHat%uint64(t.g))%uint64(t.g) < rem {
			t.sizes[i]++
		}
	}
	t.cacheCount, t.cacheNow, t.cacheTotal, t.cacheOK = t.d.count, now, nHat, true
	return t.sizes, nHat
}

// dropShard zeroes a shard's cached weight after a query discovered the
// shard empty at the cached (count, query time) — possible only within the
// estimate's eps error band — and returns the updated total. The
// refinement is written through to the cache, so repeated queries at the
// same checkpoint skip the rediscovery.
func (t *tsDispatch[T]) dropShard(shard int) uint64 {
	t.cacheTotal -= t.sizes[shard]
	t.sizes[shard] = 0
	return t.cacheTotal
}

// clockFor clamps a query time to the monotone dispatcher clock.
func (t *tsDispatch[T]) clockFor(now int64) int64 {
	if t.begun && now < t.now {
		return t.now
	}
	return now
}

func (t *tsDispatch[T]) words(peak bool) int {
	// Dispatcher + shards + the estimator + the clock scalar + the
	// persistent per-shard size cache (G words once warmed).
	w := t.d.shardWords(peak) + 1 + len(t.sizes)
	if peak {
		w += t.est.MaxWords()
	} else {
		w += t.est.Words()
	}
	return w
}

// ShardedTSWR is a G-way parallel with-replacement sampler over a
// timestamp-based window of horizon t0. Within-shard sampling is the exact
// Theorem 3.9 law; the cross-shard pick is weighted by a (1±eps) estimate
// of the shard active counts (exactness is impossible in sublinear space —
// the DGIM lower bound), so each active element is returned with
// probability (1±eps)/n.
type ShardedTSWR[T any] struct {
	ts     *tsDispatch[T]
	shards []*core.TSWR[T] //swlint:allow wordsacct duplicate typed view of ts.d.shards, counted via shardWords
}

// NewShardedTSWR builds the sampler and starts its shard workers. eps is
// the cross-shard weighting error (memory Θ(1/eps · log n) extra words in
// the dispatcher).
func NewShardedTSWR[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64) *ShardedTSWR[T] {
	validateTSShardParams(t0, g, k, eps)
	s := &ShardedTSWR[T]{shards: make([]*core.TSWR[T], g)}
	shards := make([]stream.Sampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = core.NewTSWR[T](rng.Split(), t0, k)
		shards[i] = s.shards[i]
	}
	s.ts = newTSDispatch(rng, t0, g, k, eps, shards)
	return s
}

// Observe routes the next element to its shard (timestamps must be
// non-decreasing; the dispatch order defines the stream order).
func (s *ShardedTSWR[T]) Observe(value T, ts int64) { s.ts.observe(value, ts) }

// ObserveBatch deals a batch across the shards.
func (s *ShardedTSWR[T]) ObserveBatch(batch []stream.Element[T]) { s.ts.observeBatch(batch) }

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedTSWR[T]) Barrier() { s.ts.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedTSWR[T]) Close() { s.ts.d.close() }

// SampleAt returns k elements, each active at time now and sampled with
// probability (1±eps)/n, mutually independent. Panics without a Barrier.
//
// Every shard is queried exactly once, in shard order: a shard's SampleAt
// yields a full k-vector of mutually independent slot samples, so global
// slot j reads entry j of its chosen shard's vector (one Θ(k log n) shard
// query serves every slot that picked the shard, keeping the whole query
// Θ(k log n) rather than Θ(k² log n)). The fetch-all schedule is also what
// keeps the query DETERMINISTIC: shard queries draw from their shard-local
// rngs, so the set of shards queried — not just the dispatcher's own
// draws — feeds future outputs; querying all of them makes that set
// independent of the estimate.
// Shards whose elements all expired (possible only within the eps error
// band) have their weights dropped in shard order before any slot pick, so
// a non-empty window never fails.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedTSWR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	s.ts.d.requireSynced()
	now = s.ts.clockFor(now)
	sizes, total := s.ts.weights(now)
	if total == 0 {
		return nil, false
	}
	vecs := make([][]stream.Element[T], s.ts.g)
	for shard := range s.ts.g {
		if es, ok := s.shards[shard].SampleAt(now); ok {
			vecs[shard] = es
		}
	}
	for shard := range vecs {
		if vecs[shard] == nil && sizes[shard] > 0 {
			total = s.ts.dropShard(shard)
		}
	}
	if total == 0 {
		// The estimate put all weight on expired shards; fall back to any
		// live one (its k-vector is a valid slot sample of the window).
		for shard := 0; shard < s.ts.g; shard++ {
			if es := vecs[shard]; es != nil {
				out := make([]stream.Element[T], 0, s.ts.k)
				for slot := 0; slot < s.ts.k; slot++ {
					out = append(out, recoverIndex(es[slot], shard, s.ts.g))
				}
				return out, true
			}
		}
		return nil, false
	}
	out := make([]stream.Element[T], 0, s.ts.k)
	for slot := 0; slot < s.ts.k; slot++ {
		u := s.ts.rng.Uint64n(total)
		shard := 0
		for u >= sizes[shard] {
			u -= sizes[shard]
			shard++
		}
		out = append(out, recoverIndex(vecs[shard][slot], shard, s.ts.g))
	}
	return out, true
}

// Sample queries at the latest dispatched timestamp.
//
//swlint:allow norandquery with-replacement sampling draws its k slot picks at query time by contract; every draw comes from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedTSWR[T]) Sample() ([]stream.Element[T], bool) {
	if !s.ts.begun {
		return nil, false
	}
	return s.SampleAt(s.ts.now)
}

// K returns the number of sample copies; Horizon returns t0; Count the
// number of elements dispatched.
func (s *ShardedTSWR[T]) K() int         { return s.ts.k }
func (s *ShardedTSWR[T]) Horizon() int64 { return s.ts.t0 }
func (s *ShardedTSWR[T]) Count() uint64  { return s.ts.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedTSWR[T]) Words() int    { return s.ts.words(false) }
func (s *ShardedTSWR[T]) MaxWords() int { return s.ts.words(true) }

// ShardedTSWOR is a G-way parallel without-replacement sampler over a
// timestamp-based window of horizon t0: the cross-shard slot allocation is
// drawn without replacement from the estimated shard counts, and each shard
// contributes a uniform sub-sample of its exact Theorem 4.4 k-sample.
type ShardedTSWOR[T any] struct {
	ts     *tsDispatch[T]
	shards []*core.TSWOR[T] //swlint:allow wordsacct duplicate typed view of ts.d.shards, counted via shardWords
}

// NewShardedTSWOR builds the sampler and starts its shard workers.
func NewShardedTSWOR[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64) *ShardedTSWOR[T] {
	validateTSShardParams(t0, g, k, eps)
	s := &ShardedTSWOR[T]{shards: make([]*core.TSWOR[T], g)}
	shards := make([]stream.Sampler[T], g)
	for i := 0; i < g; i++ {
		s.shards[i] = core.NewTSWOR[T](rng.Split(), t0, k)
		shards[i] = s.shards[i]
	}
	s.ts = newTSDispatch(rng, t0, g, k, eps, shards)
	return s
}

// Observe routes the next element to its shard.
func (s *ShardedTSWOR[T]) Observe(value T, ts int64) { s.ts.observe(value, ts) }

// ObserveBatch deals a batch across the shards.
func (s *ShardedTSWOR[T]) ObserveBatch(batch []stream.Element[T]) { s.ts.observeBatch(batch) }

// Barrier flushes the shard channels; required before sampling.
func (s *ShardedTSWOR[T]) Barrier() { s.ts.d.barrier() }

// Close shuts the workers down. The sampler remains queryable.
func (s *ShardedTSWOR[T]) Close() { s.ts.d.close() }

// SampleAt returns up to min(k, n) distinct active elements forming a
// without-replacement sample at time now (uniform up to the eps cross-shard
// weighting error). Panics without a Barrier.
//
// Every shard's WOR sample is fetched exactly once, in shard order; as
// with ShardedTSWR, the fetch-all schedule keeps the shard-local rng
// streams independent of the estimate. All dispatcher-side draws (the
// Floyd subset, the within-shard PickK sub-sampling) follow on the same
// goroutine.
//
//swlint:allow norandquery the cross-shard WOR merge draws its position picks at query time by contract; draws come from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedTSWOR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	s.ts.d.requireSynced()
	now = s.ts.clockFor(now)
	sizes, total := s.ts.weights(now)
	if total == 0 {
		return nil, false
	}
	cache := make([][]stream.Element[T], s.ts.g)
	for shard := range s.ts.g {
		if es, ok := s.shards[shard].SampleAt(now); ok {
			cache[shard] = es
		}
	}
	// Allocate the k slots across shards without replacement: draw m
	// distinct positions out of the (estimated) n active ones and count how
	// many land on each shard. total can be as large as the window, so the
	// subset is drawn sparsely in O(m) (Floyd) rather than by materializing
	// an O(n) permutation.
	m := s.ts.k
	if uint64(m) > total {
		m = int(total)
	}
	want := make([]int, s.ts.g)
	for pos := range pickPositions(s.ts.rng, total, m) {
		u := pos
		shard := 0
		for u >= sizes[shard] {
			u -= sizes[shard]
			shard++
		}
		want[shard]++
	}
	// Cap the wants at what is actually there (within the eps error band
	// the estimate can overshoot a shard whose elements all expired), and
	// redistribute the shortfall to shards with spare distinct elements —
	// so a non-empty window never comes up short when the elements exist.
	shortfall := 0
	for shard, w := range want {
		if w == 0 {
			continue
		}
		if avail := len(cache[shard]); w > avail {
			shortfall += w - avail
			want[shard] = avail
		}
	}
	for shard := 0; shard < s.ts.g && shortfall > 0; shard++ {
		if spare := len(cache[shard]) - want[shard]; spare > 0 {
			t := spare
			if t > shortfall {
				t = shortfall
			}
			want[shard] += t
			shortfall -= t
		}
	}
	out := make([]stream.Element[T], 0, m)
	for shard, w := range want {
		if w == 0 {
			continue
		}
		es := cache[shard]
		if w >= len(es) {
			for _, e := range es {
				out = append(out, recoverIndex(e, shard, s.ts.g))
			}
			continue
		}
		// A uniform w-subset of a uniform WOR sample is a uniform
		// w-sample without replacement.
		for _, j := range s.ts.rng.PickK(len(es), w) {
			out = append(out, recoverIndex(es[j], shard, s.ts.g))
		}
	}
	return out, len(out) > 0
}

// Sample queries at the latest dispatched timestamp.
//
//swlint:allow norandquery the cross-shard WOR merge draws its position picks at query time by contract; draws come from this sampler's own split rng in a fixed sequential order after all shard prefetches, so output is deterministic given admission and query order
func (s *ShardedTSWOR[T]) Sample() ([]stream.Element[T], bool) {
	if !s.ts.begun {
		return nil, false
	}
	return s.SampleAt(s.ts.now)
}

// K returns the target sample size; Horizon returns t0; Count the number of
// elements dispatched.
func (s *ShardedTSWOR[T]) K() int         { return s.ts.k }
func (s *ShardedTSWOR[T]) Horizon() int64 { return s.ts.t0 }
func (s *ShardedTSWOR[T]) Count() uint64  { return s.ts.d.count }

// Words and MaxWords implement stream.MemoryReporter.
func (s *ShardedTSWOR[T]) Words() int    { return s.ts.words(false) }
func (s *ShardedTSWOR[T]) MaxWords() int { return s.ts.words(true) }

// pickPositions draws m distinct positions uniformly from [0, total) in
// O(m) time and space (Floyd's subset-sampling algorithm): position total-m+i
// round draws j ~ U[0, total-m+i]; j joins the set unless already present,
// in which case total-m+i does. Only the resulting SET is used (counting
// positions per shard), so the map's iteration order is irrelevant.
func pickPositions(rng *xrand.Rand, total uint64, m int) map[uint64]struct{} {
	chosen := make(map[uint64]struct{}, m)
	for i := total - uint64(m); i < total; i++ {
		j := rng.Uint64n(i + 1)
		if _, dup := chosen[j]; dup {
			chosen[i] = struct{}{}
		} else {
			chosen[j] = struct{}{}
		}
	}
	return chosen
}

// recoverIndex maps a shard-local arrival index back to the global one:
// shard i's j-th element has global index j*g + i.
func recoverIndex[T any](e stream.Element[T], shard, g int) stream.Element[T] {
	e.Index = e.Index*uint64(g) + uint64(shard)
	return e
}

// Compile-time conformance: the sharded wrappers speak the same unified
// interface as the samplers they parallelize.
var (
	_ stream.Sampler[int]      = (*ShardedSeqWR[int])(nil)
	_ stream.TimedSampler[int] = (*ShardedTSWR[int])(nil)
	_ stream.TimedSampler[int] = (*ShardedTSWOR[int])(nil)
)
