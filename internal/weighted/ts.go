// ts.go implements weighted sampling from TIMESTAMP-based sliding windows:
// "the heaviest flows by bytes in the last minute". The Efraimidis–Spirakis
// key construction and the suffix-top-k retention argument carry over from
// the sequence-window samplers verbatim — an element beaten k times by
// newer arrivals can never re-enter any future window's top-k, because the
// beaters are newer and therefore expire later — but two things change with
// the window semantics:
//
//   - Expiry switches from arrival index to the overflow-safe
//     window.Timestamp, and must ALSO run at query time: arrivals no longer
//     bound the clock, so a query after the last arrival can expire part or
//     all of the retained set (the samplers satisfy stream.TimedSampler and
//     answer SampleAt/ItemsAt "as of" an explicit time).
//
//   - |sample| = min(k, n(t)) with n(t) data-dependent and — per the
//     paper's Section 3 negative result, citing [31] — not exactly
//     computable in sublinear space. The retained skyband yields the
//     min(k, n(t)) sample EXACTLY (when n(t) <= k every active element is
//     beaten fewer than k times and so is retained), but n(t) itself is
//     only approximable: each sampler embeds a DGIM exponential-histogram
//     counter (internal/ehist) reporting a (1±eps) effective window size
//     via SizeAt, which is what scale-factor consumers — apps.SubsetSumTS,
//     estimator layers, dashboards — need alongside the sample.
//
// Retention cost matches the sequence case: expected O(k·log n) words for
// TSWOR plus the counter's O(eps^-1·log^2 n) — the embedded ehist cost is
// part of the Words()/MaxWords() accounting (DESIGN.md §6).
package weighted

import (
	"fmt"

	"slidingsample/internal/ehist"
	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// DefaultSizeEps is the relative error of the embedded window-size counter
// used by the public constructors (matching internal/parallel's CLI
// default).
const DefaultSizeEps = 0.05

// tsSkyband is the suffix-top-k retained set over a timestamp window:
// nodes in arrival order (non-decreasing timestamps), each beaten by fewer
// than k newer arrivals. Unlike the sequence skyband, expiry takes an
// explicit clock so it can run at query time too.
type tsSkyband[T any] struct {
	win window.Timestamp
	k   int
	// rng is embedded by value (SplitValue): see the sequence skyband — at
	// fabric scale the inline 32 bytes beat a pointer to a separate heap
	// object per skyband. The derived stream is identical to Split's.
	rng   xrand.Rand
	nodes []node[T]
}

// observe inserts the next element and expires the front at its timestamp.
func (s *tsSkyband[T]) observe(e stream.Element[T], w float64) {
	s.nodes = insertNode(s.nodes, s.k, e, w, drawLogKey(&s.rng, w))
	s.expire(e.TS)
}

// expire drops the retained nodes that have left the window at time now.
// Nodes are in arrival order with non-decreasing timestamps, so the dead
// nodes form a prefix.
func (s *tsSkyband[T]) expire(now int64) {
	i := 0
	for i < len(s.nodes) && s.win.Expired(s.nodes[i].elem.TS, now) {
		i++
	}
	dropFront(&s.nodes, i)
}

// validateTS is the shared constructor validation of the timestamp-window
// samplers (programmer error to violate, matching the internal convention).
func validateTS(name string, t0 int64, k int, eps float64, weightNil bool) {
	if t0 <= 0 {
		panic("weighted: " + name + " with t0 <= 0")
	}
	if k <= 0 {
		panic("weighted: " + name + " with k <= 0")
	}
	if eps <= 0 || eps >= 1 {
		panic("weighted: " + name + " with eps outside (0,1)")
	}
	if weightNil {
		panic("weighted: " + name + " with nil weight function")
	}
}

// ---------------------------------------------------------------------------
// TSWOR: weighted k-sample without replacement, timestamp window
// ---------------------------------------------------------------------------

// TSWOR maintains a weighted k-sample without replacement over the elements
// of the last t0 clock ticks under the Efraimidis–Spirakis law, in expected
// O(k·log n) words plus the embedded size counter. While the window holds
// fewer than k elements the sample is the whole window; when a query
// empties the window the sample reports ok=false.
type TSWOR[T any] struct {
	t0     int64
	k      int
	weight func(T) float64
	count  uint64
	sky    tsSkyband[T]
	// est approximates n(t), the data-dependent active count the sample
	// size min(k, n(t)) is defined against — exact counting is impossible
	// in sublinear space (DGIM lower bound), so SizeAt is (1±eps).
	est      *ehist.Counter
	now      int64
	started  bool
	maxWords int
}

// NewTSWOR returns a weighted without-replacement sampler over a timestamp
// window of horizon t0 with target sample size k. eps is the relative error
// of the embedded window-size counter; weight maps an element value to its
// positive, finite weight. Panics on bad parameters.
func NewTSWOR[T any](rng *xrand.Rand, t0 int64, k int, eps float64, weight func(T) float64) *TSWOR[T] {
	validateTS("NewTSWOR", t0, k, eps, weight == nil)
	s := &TSWOR[T]{
		t0:     t0,
		k:      k,
		weight: weight,
		sky:    tsSkyband[T]{win: window.Timestamp{T0: t0}, k: k, rng: rng.SplitValue()},
		est:    ehist.NewEps(t0, eps),
	}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next stream element. Timestamps must be non-decreasing
// across arrivals; queries never advance the arrival clock (the embedded
// counter's queries are read-only), so a wall-clock query may be followed
// by an older — but still non-decreasing — arrival.
func (s *TSWOR[T]) Observe(value T, ts int64) {
	s.ObserveWeighted(value, s.weight(value), ts)
}

// ObserveWeighted feeds the next element with a precomputed weight (see
// WOR.ObserveWeighted; with w == weight(value) the state and draws are
// identical to Observe).
func (s *TSWOR[T]) ObserveWeighted(value T, w float64, ts int64) {
	if s.started && ts < s.now {
		panic(fmt.Sprintf("weighted: TSWOR time went backwards: %d after %d", ts, s.now))
	}
	s.now = ts
	s.started = true
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	s.est.Observe(ts)
	s.sky.observe(e, checkWeight(w))
	if wd := s.Words(); wd > s.maxWords {
		s.maxWords = wd
	}
}

// ObserveBatch feeds a run of elements (non-decreasing timestamps; Index is
// assigned here; draws and state identical to looping Observe). The
// amortization is the locals convention: the arrival counter and peak
// tracker stay in registers for the run — the skyband walk itself is
// inherently per element.
func (s *TSWOR[T]) ObserveBatch(batch []stream.Element[T]) {
	cnt := s.count
	peak := s.maxWords
	for _, e := range batch {
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("weighted: TSWOR time went backwards: %d after %d", e.TS, s.now))
		}
		s.now = e.TS
		s.started = true
		e.Index = cnt
		cnt++
		s.est.Observe(e.TS)
		s.sky.observe(e, checkWeight(s.weight(e.Value)))
		if w := s.Words(); w > peak {
			peak = w
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// ObserveWeightedBatch is ObserveBatch with precomputed weights.
func (s *TSWOR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) != len(weights) {
		panic("weighted: ObserveWeightedBatch with mismatched slice lengths")
	}
	cnt := s.count
	peak := s.maxWords
	for i, e := range batch {
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("weighted: TSWOR time went backwards: %d after %d", e.TS, s.now))
		}
		s.now = e.TS
		s.started = true
		e.Index = cnt
		cnt++
		s.est.Observe(e.TS)
		s.sky.observe(e, checkWeight(weights[i]))
		if w := s.Words(); w > peak {
			peak = w
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// ItemsAt returns the weighted sample over the elements active at time now
// — the min(k, n(t)) active elements with the largest keys, in decreasing
// key order — together with weights and log-keys. Querying advances the
// sampler's clock (it never rewinds) and expires retained nodes: arrivals
// no longer bound the clock, so expiry must run here too. ok is false when
// the window is empty at now; on a sampler that has seen NO arrival the
// clock is left untouched, so a later stream may still start at any
// timestamp, including negative ones.
func (s *TSWOR[T]) ItemsAt(now int64) ([]Item[T], bool) {
	sel := Selection[T]{k: s.k, g: 1}
	s.OfferAt(&sel, now, 0)
	sel.sort()
	return sel.items, len(sel.items) > 0
}

// OfferAt runs ItemsAt's query clock and expiry at now, then offers the
// retained nodes to sel as shard `shard` of the selection's shard count.
// The retained set holds the active suffix-top-k, so its key-top-k IS the
// window's: when n(t) <= k every active element is retained (each is
// beaten at most n(t)-1 < k times by active arrivals, and expired beaters
// imply an expired beatee), giving |sample| = min(k, n(t)) exactly even
// though n(t) itself is only approximable. A sampler that has seen no
// arrival offers nothing and keeps its clock.
func (s *TSWOR[T]) OfferAt(sel *Selection[T], now int64, shard int) {
	if s.count == 0 {
		return
	}
	if s.started && now < s.now {
		now = s.now
	}
	s.now = now
	s.started = true
	s.sky.expire(now)
	sel.offer(s.sky.nodes, uint64(shard))
}

// Items returns the sample at the latest observed time.
func (s *TSWOR[T]) Items() ([]Item[T], bool) { return s.ItemsAt(s.now) }

// SampleAt implements stream.TimedSampler: the ItemsAt sample as bare
// elements.
func (s *TSWOR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	sel := Selection[T]{k: s.k, g: 1}
	s.OfferAt(&sel, now, 0)
	return sel.Elements()
}

// Sample implements stream.Sampler: the sample at the latest observed time.
func (s *TSWOR[T]) Sample() ([]stream.Element[T], bool) { return s.SampleAt(s.now) }

// SizeAt returns the (1±eps) estimate of n(t), the number of active window
// elements at time now, clamped to the arrival count. The exact value is
// not computable in sublinear space (the Section 3 negative result); this
// is the effective-sample-size oracle min(k, n(t)) is reported against.
func (s *TSWOR[T]) SizeAt(now int64) uint64 {
	n := s.est.EstimateAt(now)
	if n > s.count {
		n = s.count
	}
	return n
}

// K returns the target sample size.
func (s *TSWOR[T]) K() int { return s.k }

// Horizon returns t0.
func (s *TSWOR[T]) Horizon() int64 { return s.t0 }

// Clock returns the latest arrival or query time and whether there was
// one; an earlier arrival panics.
func (s *TSWOR[T]) Clock() (int64, bool) { return s.now, s.started }

// Count returns the number of elements observed.
func (s *TSWOR[T]) Count() uint64 { return s.count }

// Retained returns the current retained-set size (diagnostics).
func (s *TSWOR[T]) Retained() int { return len(s.sky.nodes) }

// Words implements stream.MemoryReporter: the retained nodes plus the
// embedded size counter plus four scalars (t0, k, count, now).
func (s *TSWOR[T]) Words() int { return 4 + len(s.sky.nodes)*NodeWords + s.est.Words() }

// MaxWords implements stream.MemoryReporter (randomized, like every
// weighted substrate; the embedded counter's words are included).
func (s *TSWOR[T]) MaxWords() int { return s.maxWords }

// ---------------------------------------------------------------------------
// TSWR: k independent weighted draws (with replacement), timestamp window
// ---------------------------------------------------------------------------

// TSWR maintains k independent weighted single draws over the elements of
// the last t0 clock ticks: slot j returns element i with probability
// w_i / W(active window), independently across slots. Implemented as k
// independent k=1 timestamp skybands (monotone deques of suffix key maxima)
// sharing one embedded window-size counter.
type TSWR[T any] struct {
	t0       int64
	k        int
	weight   func(T) float64
	count    uint64
	insts    []tsSkyband[T]
	est      *ehist.Counter
	now      int64
	started  bool
	maxWords int
}

// NewTSWR returns a weighted with-replacement sampler over a timestamp
// window of horizon t0 with k sample slots. eps is the relative error of
// the embedded window-size counter. Panics on bad parameters.
func NewTSWR[T any](rng *xrand.Rand, t0 int64, k int, eps float64, weight func(T) float64) *TSWR[T] {
	validateTS("NewTSWR", t0, k, eps, weight == nil)
	s := &TSWR[T]{
		t0:     t0,
		k:      k,
		weight: weight,
		insts:  make([]tsSkyband[T], k),
		est:    ehist.NewEps(t0, eps),
	}
	for i := range s.insts {
		s.insts[i] = tsSkyband[T]{win: window.Timestamp{T0: t0}, k: 1, rng: rng.SplitValue()}
	}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next stream element to every slot instance.
func (s *TSWR[T]) Observe(value T, ts int64) {
	s.ObserveWeighted(value, s.weight(value), ts)
}

// ObserveWeighted feeds the next element with a precomputed weight (see
// WOR.ObserveWeighted).
func (s *TSWR[T]) ObserveWeighted(value T, w float64, ts int64) {
	if s.started && ts < s.now {
		panic(fmt.Sprintf("weighted: TSWR time went backwards: %d after %d", ts, s.now))
	}
	s.now = ts
	s.started = true
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	s.est.Observe(ts)
	w = checkWeight(w)
	for i := range s.insts {
		s.insts[i].observe(e, w)
	}
	if wd := s.Words(); wd > s.maxWords {
		s.maxWords = wd
	}
}

// ObserveBatch feeds a run of elements. Element-major like Observe (each
// instance owns its generator, so the per-element slot order keeps the draw
// sequences identical to the looped path); counter and peak tracking are
// hoisted into locals.
func (s *TSWR[T]) ObserveBatch(batch []stream.Element[T]) {
	cnt := s.count
	peak := s.maxWords
	for _, e := range batch {
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("weighted: TSWR time went backwards: %d after %d", e.TS, s.now))
		}
		s.now = e.TS
		s.started = true
		e.Index = cnt
		cnt++
		s.est.Observe(e.TS)
		w := checkWeight(s.weight(e.Value))
		for i := range s.insts {
			s.insts[i].observe(e, w)
		}
		if wd := s.Words(); wd > peak {
			peak = wd
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// ObserveWeightedBatch is ObserveBatch with precomputed weights.
func (s *TSWR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) != len(weights) {
		panic("weighted: ObserveWeightedBatch with mismatched slice lengths")
	}
	cnt := s.count
	peak := s.maxWords
	for i, e := range batch {
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("weighted: TSWR time went backwards: %d after %d", e.TS, s.now))
		}
		s.now = e.TS
		s.started = true
		e.Index = cnt
		cnt++
		s.est.Observe(e.TS)
		w := checkWeight(weights[i])
		for j := range s.insts {
			s.insts[j].observe(e, w)
		}
		if wd := s.Words(); wd > peak {
			peak = wd
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// ItemsAt returns the k slot draws over the elements active at time now.
// Querying advances the clock and expires retained nodes (arrivals no
// longer bound the clock). ok is false when the window is empty at now; on
// a sampler that has seen NO arrival the clock is left untouched, so a
// later stream may still start at any timestamp, including negative ones.
func (s *TSWR[T]) ItemsAt(now int64) ([]Item[T], bool) {
	if s.count == 0 {
		return nil, false
	}
	if s.started && now < s.now {
		now = s.now
	}
	s.now = now
	s.started = true
	out := make([]Item[T], s.k)
	for i := range s.insts {
		s.insts[i].expire(now)
		// A k=1 skyband's nodes have strictly decreasing keys in arrival
		// order, so after expiry the front node is the active key maximum —
		// the slot's weighted draw. Expiry empties every instance at the
		// same time (it depends only on timestamps, not keys).
		if len(s.insts[i].nodes) == 0 {
			return nil, false
		}
		nd := s.insts[i].nodes[0]
		out[i] = Item[T]{Elem: nd.elem, Weight: nd.w, LogKey: nd.lk}
	}
	return out, true
}

// Items returns the k slot draws at the latest observed time.
func (s *TSWR[T]) Items() ([]Item[T], bool) { return s.ItemsAt(s.now) }

// SampleAt implements stream.TimedSampler: k weighted draws with
// replacement over the window active at time now.
func (s *TSWR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	return itemElements(s.ItemsAt(now))
}

// Sample implements stream.Sampler: the draws at the latest observed time.
func (s *TSWR[T]) Sample() ([]stream.Element[T], bool) { return s.SampleAt(s.now) }

// SizeAt returns the (1±eps) estimate of n(t) at time now, clamped to the
// arrival count.
func (s *TSWR[T]) SizeAt(now int64) uint64 {
	n := s.est.EstimateAt(now)
	if n > s.count {
		n = s.count
	}
	return n
}

// K returns the number of sample slots.
func (s *TSWR[T]) K() int { return s.k }

// Horizon returns t0.
func (s *TSWR[T]) Horizon() int64 { return s.t0 }

// Clock returns the latest arrival or query time and whether there was
// one; an earlier arrival panics.
func (s *TSWR[T]) Clock() (int64, bool) { return s.now, s.started }

// Count returns the number of elements observed.
func (s *TSWR[T]) Count() uint64 { return s.count }

// Retained returns the total retained-node count (diagnostics).
func (s *TSWR[T]) Retained() int {
	t := 0
	for i := range s.insts {
		t += len(s.insts[i].nodes)
	}
	return t
}

// Words implements stream.MemoryReporter: every instance's nodes plus the
// embedded size counter plus four scalars (t0, k, count, now).
func (s *TSWR[T]) Words() int {
	w := 4 + s.est.Words()
	for i := range s.insts {
		w += len(s.insts[i].nodes) * NodeWords
	}
	return w
}

// MaxWords implements stream.MemoryReporter.
func (s *TSWR[T]) MaxWords() int { return s.maxWords }

// itemElements strips Items down to bare elements (the Sample/SampleAt
// shape of the unified interface).
func itemElements[T any](items []Item[T], ok bool) ([]stream.Element[T], bool) {
	if !ok {
		return nil, false
	}
	out := make([]stream.Element[T], len(items))
	for i, it := range items {
		out[i] = it.Elem
	}
	return out, true
}

// Compile-time conformance with the unified sampler interface (including
// the precomputed-weight ingest extension the sharded dispatcher uses).
var (
	_ stream.TimedSampler[int]    = (*TSWOR[int])(nil)
	_ stream.TimedSampler[int]    = (*TSWR[int])(nil)
	_ stream.WeightedSampler[int] = (*TSWOR[int])(nil)
	_ stream.WeightedSampler[int] = (*TSWR[int])(nil)
)
