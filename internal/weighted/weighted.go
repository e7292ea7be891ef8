// Package weighted implements weighted sampling from sliding windows —
// sequence-based (WOR/WR, this file) and timestamp-based (TSWOR/TSWR,
// ts.go): each element carries a positive weight, and heavy elements are
// sampled proportionally more often than light ones.
//
// The substrate is the Efraimidis–Spirakis key construction: element p_i with
// weight w_i draws an independent uniform U_i and gets key U_i^(1/w_i). The
// k elements with the largest keys among a set form a weighted k-sample
// WITHOUT replacement of that set — distributed exactly like successive
// weighted draws (pick i with probability w_i/W, remove it, renormalize,
// repeat k times). Keys are kept in log space (ln U_i / w_i, an
// order-preserving transform) so tiny weights cannot underflow.
//
// To slide the window, WOR generalizes the paper's Theorem 2.2 machinery the
// same way Gemulla–Lehner's skyband generalizes priority sampling: retain
// exactly the elements that are in the key-top-k of SOME suffix of the
// arrival order — equivalently, the elements beaten by fewer than k newer
// arrivals. Because a sequence window is always a suffix, the top-k of the
// active window is a subset of the retained set at all times, and an element
// beaten k times can never re-enter any future window's top-k, so dropping
// it is safe. Elements expire by arrival index. The retained set has
// expected size O(k·log(n/k)) (the harmonic argument of bounded priority
// sampling), so the structure costs O(k·log n) words in expectation —
// randomized, unlike the deterministic uniform samplers in internal/core;
// the weighted law is what buys the slack.
//
// WR maintains k independent single-draw instances (k = 1 skybands): each
// query slot returns an element with probability w_i / W(window),
// independently across slots — sampling with replacement.
//
// All four samplers satisfy stream.Sampler[T] (the timestamp pair also
// stream.TimedSampler[T]); the element weight is derived from the value by
// the weight function fixed at construction, so weighted substrates drop
// into every layer that speaks the unified interface.
//
// # Queries draw no randomness
//
// Every rng consumption in this package happens at OBSERVE time: the ES key
// is drawn once when an element arrives, and expiry (whether triggered by an
// arrival or by a timestamped query) only discards retained nodes. Items /
// Sample / ItemsAt / SampleAt never advance a generator — a query is a pure
// function of the retained state and the query clock. This is a
// load-bearing invariant: internal/parallel queries its shards between
// ingest batches (after a barrier, on the caller's goroutine), and
// internal/serve interleaves concurrent readers between ingest batches;
// both stay seed-deterministic only because how many queries run, and
// when, cannot perturb the rng stream that future observes will consume.
// TestQueriesDrawNoRandomness pins it.
package weighted

import (
	"math"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// NodeWords is the per-retained-node cost in the DESIGN.md §6 word model:
// the stored element (value + index + timestamp) plus the weight, the
// log-key, and the domination counter.
const NodeWords = stream.StoredWords + 3

// node is one retained element: its log-key plus the number of newer
// arrivals with larger keys observed so far.
type node[T any] struct {
	elem stream.Element[T]
	w    float64
	lk   float64 // ln(U)/w; order-isomorphic to the ES key U^(1/w)
	beat int     // newer arrivals with larger log-key
}

// skyband is the suffix-top-k retained set over a sequence window: nodes in
// arrival order, each beaten by fewer than k newer arrivals. It is the
// shared core of WOR (one skyband with parameter k) and WR (k independent
// skybands with parameter 1).
type skyband[T any] struct {
	win window.Sequence
	k   int
	// rng is embedded by value (SplitValue, not Split): the multi-tenant
	// fabric packs millions of skybands into one process, and 32 bytes
	// inline beats a pointer plus a separate 32-byte heap object per
	// skyband — k of them per WR sampler. The derived stream is identical.
	rng   xrand.Rand
	nodes []node[T]
}

// drawLogKey draws ln(U)/w for a fresh uniform U in (0, 1).
func drawLogKey(rng *xrand.Rand, w float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Log(u) / w
}

// observe inserts the next element: bump the domination count of every
// retained node the new key beats, drop nodes beaten k times (they can
// never again be in the top-k of a suffix), append the arrival, and expire
// the front by arrival index. Arrivals newer than a node expire after it,
// so a domination count never includes expired elements while the node is
// active — which is exactly why beat >= k is a safe drop.
func (s *skyband[T]) observe(e stream.Element[T], w float64) {
	s.nodes = insertNode(s.nodes, s.k, e, w, drawLogKey(&s.rng, w))
	i := 0
	for i < len(s.nodes) && !s.win.Active(s.nodes[i].elem.Index, e.Index) {
		i++
	}
	dropFront(&s.nodes, i)
}

// insertNode is the shared skyband walk of the sequence- and
// timestamp-window samplers: bump the domination count of every retained
// node the new key beats, drop nodes beaten k times, append the arrival,
// and zero any slots the drops vacated — the evicted elements' payloads
// (strings, slices, pointers) must not stay live in the slice's slack for
// the sampler's lifetime.
//
// The walk is in place: a count is bumped through a pointer, so until the
// first drop a node costs a key compare and at most one word written, and
// only the nodes after a drop are copied down to close the gap. The walk
// itself stays O(m) for m retained nodes.
func insertNode[T any](nodes []node[T], k int, e stream.Element[T], w, lk float64) []node[T] {
	i := 0
	for ; i < len(nodes); i++ {
		nd := &nodes[i]
		if nd.lk < lk {
			nd.beat++
		}
		if nd.beat >= k {
			break
		}
	}
	if i == len(nodes) {
		return append(nodes, node[T]{elem: e, w: w, lk: lk})
	}
	// nodes[i] is the first drop: compact the survivors after it down.
	keep := i
	for i++; i < len(nodes); i++ {
		nd := &nodes[i]
		if nd.lk < lk {
			nd.beat++
		}
		if nd.beat < k {
			nodes[keep] = *nd
			keep++
		}
	}
	old := len(nodes)
	nodes = append(nodes[:keep], node[T]{elem: e, w: w, lk: lk})
	clear(nodes[keep+1 : old])
	return nodes
}

// dropFront removes the first i nodes by shifting the survivors in place
// (the capacity is bounded by the retained peak, which the word model
// already charges for) and zeroes the vacated tail — expired payloads must
// not be pinned by the slice's slack.
func dropFront[T any](nodes *[]node[T], i int) {
	if i <= 0 {
		return
	}
	m := copy(*nodes, (*nodes)[i:])
	clear((*nodes)[m:])
	*nodes = (*nodes)[:m]
}

// checkWeight validates a weight function result (programmer error to
// return anything else, matching the internal panic convention).
func checkWeight(w float64) float64 {
	if !(w > 0) || math.IsInf(w, 1) {
		panic("weighted: element weight must be positive and finite")
	}
	return w
}

// Item is one sampled element together with its weight and log-key. The
// log-key is what subset-sum estimation needs: conditioned on a threshold
// tau, P(ln U/w > tau) = 1 - e^(w·tau) is the element's inclusion
// probability (see apps.SubsetSum).
type Item[T any] struct {
	Elem   stream.Element[T]
	Weight float64
	LogKey float64
}

// ---------------------------------------------------------------------------
// WOR: weighted k-sample without replacement
// ---------------------------------------------------------------------------

// WOR maintains a weighted k-sample without replacement over the n most
// recent elements under the Efraimidis–Spirakis law, in expected O(k·log n)
// words. While the window holds fewer than k elements the sample is the
// whole window.
type WOR[T any] struct {
	n        uint64
	k        int
	weight   func(T) float64
	count    uint64
	sky      skyband[T]
	maxWords int
}

// NewWOR returns a weighted without-replacement sampler over a window of
// the n most recent elements with target sample size k. weight maps an
// element value to its positive, finite weight. Panics on bad parameters.
func NewWOR[T any](rng *xrand.Rand, n uint64, k int, weight func(T) float64) *WOR[T] {
	if n == 0 {
		panic("weighted: NewWOR with n == 0")
	}
	if k <= 0 {
		panic("weighted: NewWOR with k <= 0")
	}
	if weight == nil {
		panic("weighted: NewWOR with nil weight function")
	}
	s := &WOR[T]{
		n:      n,
		k:      k,
		weight: weight,
		sky:    skyband[T]{win: window.Sequence{N: n}, k: k, rng: rng.SplitValue()},
	}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next stream element (timestamps carried through only).
func (s *WOR[T]) Observe(value T, ts int64) {
	s.ObserveWeighted(value, s.weight(value), ts)
}

// ObserveWeighted feeds the next element with a precomputed weight —
// layers that already paid the weight function (the sharded dispatcher
// computes each element's weight for its per-shard weight oracles before
// dealing) hand it over instead of paying twice. With w == weight(value)
// the state and draws are identical to Observe.
func (s *WOR[T]) ObserveWeighted(value T, w float64, ts int64) {
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	s.sky.observe(e, checkWeight(w))
	if wd := s.Words(); wd > s.maxWords {
		s.maxWords = wd
	}
}

// ObserveBatch feeds a run of elements (Index assigned here; draws and
// state identical to looping Observe). The amortization is the PR-1 locals
// convention: the arrival counter and peak tracker stay in registers for
// the whole run and the footprint checkpoint is inlined arithmetic — the
// skyband walk itself is inherently per element.
func (s *WOR[T]) ObserveBatch(batch []stream.Element[T]) {
	cnt := s.count
	peak := s.maxWords
	for _, e := range batch {
		e.Index = cnt
		cnt++
		s.sky.observe(e, checkWeight(s.weight(e.Value)))
		if w := s.Words(); w > peak {
			peak = w
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// ObserveWeightedBatch is ObserveBatch with precomputed weights;
// weights[i] belongs to batch[i] (panics on a length mismatch, matching
// the internal convention).
func (s *WOR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) != len(weights) {
		panic("weighted: ObserveWeightedBatch with mismatched slice lengths")
	}
	cnt := s.count
	peak := s.maxWords
	for i, e := range batch {
		e.Index = cnt
		cnt++
		s.sky.observe(e, checkWeight(weights[i]))
		if w := s.Words(); w > peak {
			peak = w
		}
	}
	s.count = cnt
	s.maxWords = peak
}

// Items returns the current sample — the min(k, windowSize) active elements
// with the largest keys, in decreasing key order (the successive-sampling
// order: the first item is distributed like a single weighted draw over the
// window). ok is false while the stream is empty.
func (s *WOR[T]) Items() ([]Item[T], bool) {
	if s.count == 0 {
		return nil, false
	}
	// Every retained node is active (expiry runs at each observe and the
	// sequence clock is the arrival index), and the window's top-k is always
	// retained, so the top-k of the retained set IS the window's top-k.
	return topItems(s.sky.nodes, s.k), true
}

// topItems returns the min(k, len(nodes)) retained nodes with the largest
// keys as Items, in decreasing key order (the successive-sampling order).
// An exact key tie ranks the earlier arrival first: the order the
// skyband's strict beating already implies (a newer equal key does not
// beat an older one), so the retained set always holds the top-k of every
// suffix under it, and the answer is a pure function of the retained set.
//
// The selection is bounded: the result slice doubles as a heap of the best
// min(k, m) nodes seen so far, worst at the root. The scan costs O(m) plus
// O(log k) per root replacement, which stays rare because the skyband
// keeps an old node only while its key is high, and the oldest nodes fill
// the heap first; heapsort then orders the result in O(k·log k).
func topItems[T any](nodes []node[T], k int) []Item[T] {
	m := min(k, len(nodes))
	out := make([]Item[T], m)
	for i := range out {
		nd := &nodes[i]
		out[i] = Item[T]{Elem: nd.elem, Weight: nd.w, LogKey: nd.lk}
	}
	for i := m/2 - 1; i >= 0; i-- {
		siftWorst(out, i)
	}
	for i := m; i < len(nodes); i++ {
		// ranksBefore(nd, root), inlined: building an Item per scanned node
		// costs about half again the whole selection.
		nd := &nodes[i]
		if rootLK := out[0].LogKey; nd.lk > rootLK || nd.lk == rootLK && nd.elem.Index < out[0].Elem.Index {
			out[0] = Item[T]{Elem: nd.elem, Weight: nd.w, LogKey: nd.lk}
			siftWorst(out, 0)
		}
	}
	for end := m - 1; end > 0; end-- {
		out[0], out[end] = out[end], out[0]
		siftWorst(out[:end], 0)
	}
	return out
}

// ranksBefore is topItems' total order: the larger log-key first, then
// the smaller arrival index.
func ranksBefore[T any](a, b *Item[T]) bool {
	return a.LogKey > b.LogKey || a.LogKey == b.LogKey && a.Elem.Index < b.Elem.Index
}

// siftWorst restores the heap below h[i] after h[i] changed: every parent
// ranks after its children, so h[0] is the worst item of h.
func siftWorst[T any](h []Item[T], i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && ranksBefore(&h[c], &h[r]) {
			c = r
		}
		if !ranksBefore(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Sample implements stream.Sampler: the Items sample as bare elements.
func (s *WOR[T]) Sample() ([]stream.Element[T], bool) {
	items, ok := s.Items()
	if !ok {
		return nil, false
	}
	out := make([]stream.Element[T], len(items))
	for i, it := range items {
		out[i] = it.Elem
	}
	return out, true
}

// K returns the target sample size.
func (s *WOR[T]) K() int { return s.k }

// N returns the window size.
func (s *WOR[T]) N() uint64 { return s.n }

// Count returns the number of elements observed.
func (s *WOR[T]) Count() uint64 { return s.count }

// Retained returns the current retained-set size (diagnostics).
func (s *WOR[T]) Retained() int { return len(s.sky.nodes) }

// Words implements stream.MemoryReporter: the retained nodes plus three
// scalars (n, k, count).
func (s *WOR[T]) Words() int { return 3 + len(s.sky.nodes)*NodeWords }

// MaxWords implements stream.MemoryReporter (randomized — the weighted
// substrates trade the paper's deterministic bound for the weighted law).
func (s *WOR[T]) MaxWords() int { return s.maxWords }

// ---------------------------------------------------------------------------
// WR: k independent weighted draws (with replacement)
// ---------------------------------------------------------------------------

// WR maintains k independent weighted single draws over the n most recent
// elements: slot j returns element i with probability w_i / W(window),
// independently across slots. Implemented as k independent k=1 skybands
// (each a monotone deque of suffix key maxima, expected O(log n) nodes).
type WR[T any] struct {
	n        uint64
	k        int
	weight   func(T) float64
	count    uint64
	insts    []skyband[T]
	maxWords int
}

// NewWR returns a weighted with-replacement sampler over a window of the n
// most recent elements with k sample slots. Panics on bad parameters.
func NewWR[T any](rng *xrand.Rand, n uint64, k int, weight func(T) float64) *WR[T] {
	if n == 0 {
		panic("weighted: NewWR with n == 0")
	}
	if k <= 0 {
		panic("weighted: NewWR with k <= 0")
	}
	if weight == nil {
		panic("weighted: NewWR with nil weight function")
	}
	s := &WR[T]{n: n, k: k, weight: weight, insts: make([]skyband[T], k)}
	for i := range s.insts {
		s.insts[i] = skyband[T]{win: window.Sequence{N: n}, k: 1, rng: rng.SplitValue()}
	}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next stream element to every slot instance.
func (s *WR[T]) Observe(value T, ts int64) {
	s.ObserveWeighted(value, s.weight(value), ts)
}

// ObserveWeighted feeds the next element with a precomputed weight (see
// WOR.ObserveWeighted).
func (s *WR[T]) ObserveWeighted(value T, w float64, ts int64) {
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	w = checkWeight(w)
	for i := range s.insts {
		s.insts[i].observe(e, w)
	}
	if wd := s.Words(); wd > s.maxWords {
		s.maxWords = wd
	}
}

// ObserveBatch feeds a run of elements. Element-major like Observe (each
// instance owns its generator, so the per-element slot order is what keeps
// the draw sequences — and the footprint checkpoints — identical to the
// looped path); the counter and peak tracking are hoisted into locals.
func (s *WR[T]) ObserveBatch(batch []stream.Element[T]) {
	cnt := s.count
	peak := s.maxWords
	for _, e := range batch {
		e.Index = cnt
		cnt++
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
func (s *WR[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	if len(batch) != len(weights) {
		panic("weighted: ObserveWeightedBatch with mismatched slice lengths")
	}
	cnt := s.count
	peak := s.maxWords
	for i, e := range batch {
		e.Index = cnt
		cnt++
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

// Items returns the k slot draws with their weights and log-keys.
func (s *WR[T]) Items() ([]Item[T], bool) {
	if s.count == 0 {
		return nil, false
	}
	out := make([]Item[T], s.k)
	for i := range s.insts {
		// A k=1 skyband's nodes have strictly decreasing keys in arrival
		// order (a newer, higher-keyed arrival evicts), so the front node is
		// the active key maximum — the slot's weighted draw.
		nd := s.insts[i].nodes[0]
		out[i] = Item[T]{Elem: nd.elem, Weight: nd.w, LogKey: nd.lk}
	}
	return out, true
}

// Sample implements stream.Sampler: k weighted draws with replacement.
func (s *WR[T]) Sample() ([]stream.Element[T], bool) {
	items, ok := s.Items()
	if !ok {
		return nil, false
	}
	out := make([]stream.Element[T], len(items))
	for i, it := range items {
		out[i] = it.Elem
	}
	return out, true
}

// K returns the number of sample slots.
func (s *WR[T]) K() int { return s.k }

// N returns the window size.
func (s *WR[T]) N() uint64 { return s.n }

// Count returns the number of elements observed.
func (s *WR[T]) Count() uint64 { return s.count }

// Retained returns the total retained-node count (diagnostics).
func (s *WR[T]) Retained() int {
	t := 0
	for i := range s.insts {
		t += len(s.insts[i].nodes)
	}
	return t
}

// Words implements stream.MemoryReporter: every instance's nodes plus three
// scalars (n, k, count).
func (s *WR[T]) Words() int {
	w := 3
	for i := range s.insts {
		w += len(s.insts[i].nodes) * NodeWords
	}
	return w
}

// MaxWords implements stream.MemoryReporter.
func (s *WR[T]) MaxWords() int { return s.maxWords }

// Compile-time conformance with the unified sampler interface (including
// the precomputed-weight ingest extension the sharded dispatcher uses).
var (
	_ stream.WeightedSampler[int] = (*WOR[int])(nil)
	_ stream.WeightedSampler[int] = (*WR[int])(nil)
)
