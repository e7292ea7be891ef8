package apps

import (
	"math"

	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// SubsetSum estimates windowed subset sums Σ_{p ∈ W, pred(p)} w(p) from a
// weighted sample — the estimation problem the weighted substrate exists
// for (Cohen–Duffield–Kaplan–Lund–Thorup, "Stream sampling for
// variance-optimal estimation of subset sums"; see PAPERS.md).
//
// Machinery: a weighted.WOR sampler with k+1 slots is a bottom-k sketch.
// Let tau be the (k+1)-th largest log-key. Conditioned on tau, each of the
// top-k elements was included with probability
//
//	P(ln U_i / w_i > tau) = 1 - e^(w_i·tau),
//
// so the conditional Horvitz–Thompson estimator
//
//	Ŝ = Σ_{i in top-k, pred(i)} w_i / (1 - e^(w_i·tau))
//
// is unbiased for the subset sum over the window (Cohen–Kaplan bottom-k
// estimation framework; priority sampling is the w_i/u_i special case).
// While the window holds at most k elements the sketch is exhaustive and
// the estimate is the exact subset sum.
//
// Memory is the sampler's expected O(k·log n) words; any predicate can be
// queried after the fact — the estimator never looks at values on the
// ingest path.
type SubsetSum[T any] struct {
	k int
	s *weighted.WOR[T]
}

// NewSubsetSum builds a windowed subset-sum estimator over the n most
// recent elements with sketch size k (the underlying sampler keeps k+1
// slots: k estimation slots plus the threshold). weight maps a value to its
// positive, finite weight. Panics on bad parameters.
func NewSubsetSum[T any](rng *xrand.Rand, n uint64, k int, weight func(T) float64) *SubsetSum[T] {
	if k < 1 {
		panic("apps: NewSubsetSum with k < 1")
	}
	return &SubsetSum[T]{k: k, s: weighted.NewWOR[T](rng, n, k+1, weight)}
}

// Observe feeds the next element.
func (e *SubsetSum[T]) Observe(value T, ts int64) { e.s.Observe(value, ts) }

// ObserveBatch feeds a run of elements through the sampler's batched hot
// path (sample-path identical to looped Observe).
func (e *SubsetSum[T]) ObserveBatch(batch []stream.Element[T]) { e.s.ObserveBatch(batch) }

// ObserveWeighted implements stream.WeightedSampler's ingest half: the
// precomputed weight flows into the sketch (and the HT estimate reads the
// weight recorded at ingest), so estimator consumers that already hold
// weights — the serving layer — skip the weight function.
func (e *SubsetSum[T]) ObserveWeighted(value T, w float64, ts int64) {
	e.s.ObserveWeighted(value, w, ts)
}

// ObserveWeightedBatch feeds a run of elements with precomputed weights.
func (e *SubsetSum[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	e.s.ObserveWeightedBatch(batch, weights)
}

// Estimate returns the unbiased estimate of Σ w(p) over the active window
// elements satisfying pred. ok is false while the window is empty.
func (e *SubsetSum[T]) Estimate(pred func(T) bool) (float64, bool) {
	items, ok := e.s.Items()
	if !ok {
		return 0, false
	}
	return htEstimate(items, e.k, pred), true
}

// htEstimate is the conditional Horvitz–Thompson computation shared by the
// sequence- and timestamp-window estimators: exhaustive when the sketch
// holds the whole window, thresholded on the (k+1)-th largest log-key
// otherwise.
func htEstimate[T any](items []weighted.Item[T], k int, pred func(T) bool) float64 {
	if len(items) <= k {
		// Exhaustive sketch: the window has at most k elements.
		sum := 0.0
		for _, it := range items {
			if pred(it.Elem.Value) {
				sum += it.Weight
			}
		}
		return sum
	}
	tau := items[k].LogKey // (k+1)-th largest log-key: the threshold
	sum := 0.0
	for _, it := range items[:k] {
		if pred(it.Elem.Value) {
			// Inclusion probability 1 - e^(w·tau), computed via Expm1 so
			// near-certain inclusions (w·tau ≈ 0⁻) keep full precision.
			sum += it.Weight / -math.Expm1(it.Weight*tau)
		}
	}
	return sum
}

// Total estimates the total window weight W (the pred ≡ true subset).
func (e *SubsetSum[T]) Total() (float64, bool) {
	return e.Estimate(func(T) bool { return true })
}

// SubsetSumTS is the timestamp-window subset-sum estimator: the same
// Cohen–Kaplan bottom-k construction over "the last t0 ticks" instead of
// "the last n elements". The underlying weighted.TSWOR expires by the
// overflow-safe timestamp comparison and re-expires at query time, so
// estimates may be asked for any time at or past the last arrival — the
// sketch keeps answering as the window drains, reaching the exact (then
// zero) subset sum once at most k elements survive. Its embedded
// exponential-histogram counter reports the effective window size n(t)
// alongside (SizeAt), the scale factor mean-style consumers need.
type SubsetSumTS[T any] struct {
	k int
	s *weighted.TSWOR[T]
}

// NewSubsetSumTS builds a windowed subset-sum estimator over the elements
// of the last t0 clock ticks with sketch size k (k+1 sampler slots: k
// estimation slots plus the threshold). eps is the relative error of the
// embedded window-size counter; weight maps a value to its positive,
// finite weight. Panics on bad parameters.
func NewSubsetSumTS[T any](rng *xrand.Rand, t0 int64, k int, eps float64, weight func(T) float64) *SubsetSumTS[T] {
	if k < 1 {
		panic("apps: NewSubsetSumTS with k < 1")
	}
	return &SubsetSumTS[T]{k: k, s: weighted.NewTSWOR[T](rng, t0, k+1, eps, weight)}
}

// Observe feeds the next element (non-decreasing timestamps).
func (e *SubsetSumTS[T]) Observe(value T, ts int64) { e.s.Observe(value, ts) }

// ObserveBatch feeds a run of elements through the sampler's batched hot
// path (sample-path identical to looped Observe).
func (e *SubsetSumTS[T]) ObserveBatch(batch []stream.Element[T]) { e.s.ObserveBatch(batch) }

// ObserveWeighted feeds one element with a precomputed weight (see
// SubsetSum.ObserveWeighted).
func (e *SubsetSumTS[T]) ObserveWeighted(value T, w float64, ts int64) {
	e.s.ObserveWeighted(value, w, ts)
}

// ObserveWeightedBatch feeds a run of elements with precomputed weights.
func (e *SubsetSumTS[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	e.s.ObserveWeightedBatch(batch, weights)
}

// EstimateAt returns the unbiased estimate of Σ w(p) over the elements
// active at time now that satisfy pred. Querying advances the estimator's
// clock (never rewinds). ok is false when the window is empty at now.
func (e *SubsetSumTS[T]) EstimateAt(now int64, pred func(T) bool) (float64, bool) {
	items, ok := e.s.ItemsAt(now)
	if !ok {
		return 0, false
	}
	return htEstimate(items, e.k, pred), true
}

// Estimate returns the estimate at the latest observed time.
func (e *SubsetSumTS[T]) Estimate(pred func(T) bool) (float64, bool) {
	items, ok := e.s.Items()
	if !ok {
		return 0, false
	}
	return htEstimate(items, e.k, pred), true
}

// TotalAt estimates the total active weight W at time now.
func (e *SubsetSumTS[T]) TotalAt(now int64) (float64, bool) {
	return e.EstimateAt(now, func(T) bool { return true })
}

// Total estimates the total active weight at the latest observed time.
func (e *SubsetSumTS[T]) Total() (float64, bool) {
	return e.Estimate(func(T) bool { return true })
}

// SizeAt returns the (1±eps) effective window size n(t) at time now.
func (e *SubsetSumTS[T]) SizeAt(now int64) uint64 { return e.s.SizeAt(now) }

// K returns the sketch size (estimation slots, excluding the threshold).
func (e *SubsetSumTS[T]) K() int { return e.k }

// Count returns the number of arrivals.
func (e *SubsetSumTS[T]) Count() uint64 { return e.s.Count() }

// Clock returns the sketch sampler's clock.
func (e *SubsetSumTS[T]) Clock() (int64, bool) { return e.s.Clock() }

// Words and MaxWords implement stream.MemoryReporter (the embedded size
// counter is included — DESIGN.md §6).
func (e *SubsetSumTS[T]) Words() int    { return 1 + e.s.Words() }
func (e *SubsetSumTS[T]) MaxWords() int { return 1 + e.s.MaxWords() }

// K returns the sketch size (estimation slots, excluding the threshold).
func (e *SubsetSum[T]) K() int { return e.k }

// Count returns the number of arrivals.
func (e *SubsetSum[T]) Count() uint64 { return e.s.Count() }

// Words and MaxWords implement stream.MemoryReporter.
func (e *SubsetSum[T]) Words() int    { return 1 + e.s.Words() }
func (e *SubsetSum[T]) MaxWords() int { return 1 + e.s.MaxWords() }
