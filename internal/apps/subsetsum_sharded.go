package apps

import (
	"slidingsample/internal/parallel"
	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// ShardedSubsetSumTS is the G-way parallel timestamp-window subset-sum
// estimator: the same Cohen–Kaplan bottom-k construction as SubsetSumTS,
// ingesting through parallel.ShardedWeightedTSWOR's multi-core dispatch.
//
// The estimate itself carries NO sharding error: the sharded sampler's
// merged ItemsAt is the exact Efraimidis–Spirakis top-(k+1) of the window
// (globally comparable log-keys), so the conditional Horvitz–Thompson
// computation is identical to the sequential estimator's. What the
// sharding adds on top is the dispatcher's per-shard weight oracles:
// TotalWeightAt reports a direct (1±eps) estimate of the total active
// weight — the scale factor mean/share-style consumers need — without
// touching the sketch, and SizeAt the matching (1±eps) active count.
//
// Drive ingest AND queries from one producer goroutine; EstimateAt and
// TotalAt need a Barrier after the last Observe, exactly like every
// sharded substrate, while TotalWeightAt and SizeAt read dispatcher-side
// state and need no barrier (they still belong to the producer goroutine).
type ShardedSubsetSumTS[T any] struct {
	k int
	s *parallel.ShardedWeightedTSWOR[T]
}

// NewShardedSubsetSumTS builds a G-way sharded windowed subset-sum
// estimator over the elements of the last t0 clock ticks with sketch size
// k (k+1 sampler slots: k estimation slots plus the threshold). eps is the
// relative error of the embedded weight/size oracles; weight maps a value
// to its positive, finite weight. Panics on bad parameters.
func NewShardedSubsetSumTS[T any](rng *xrand.Rand, t0 int64, g, k int, eps float64, weight func(T) float64) *ShardedSubsetSumTS[T] {
	if k < 1 {
		panic("apps: NewShardedSubsetSumTS with k < 1")
	}
	return &ShardedSubsetSumTS[T]{
		k: k,
		s: parallel.NewShardedWeightedTSWOR[T](rng, t0, g, k+1, eps, weight),
	}
}

// Observe feeds the next element (non-decreasing timestamps; single
// producer goroutine).
func (e *ShardedSubsetSumTS[T]) Observe(value T, ts int64) { e.s.Observe(value, ts) }

// ObserveBatch feeds a run of elements through the weight-aware batch
// dealing.
func (e *ShardedSubsetSumTS[T]) ObserveBatch(batch []stream.Element[T]) { e.s.ObserveBatch(batch) }

// ObserveWeighted feeds one element with a precomputed weight: the weight
// rides the dispatch into the sketch and the dispatcher-side oracles, and
// the weight function is never called (see SubsetSum.ObserveWeighted).
func (e *ShardedSubsetSumTS[T]) ObserveWeighted(value T, w float64, ts int64) {
	e.s.ObserveWeighted(value, w, ts)
}

// ObserveWeightedBatch feeds a run of elements with precomputed weights.
func (e *ShardedSubsetSumTS[T]) ObserveWeightedBatch(batch []stream.Element[T], weights []float64) {
	e.s.ObserveWeightedBatch(batch, weights)
}

// Barrier flushes the shard channels; required before EstimateAt/TotalAt.
func (e *ShardedSubsetSumTS[T]) Barrier() { e.s.Barrier() }

// Close shuts the shard workers down. The estimator remains queryable.
func (e *ShardedSubsetSumTS[T]) Close() { e.s.Close() }

// EstimateAt returns the unbiased estimate of Σ w(p) over the elements
// active at time now that satisfy pred. ok is false when the window is
// empty at now. Panics without a Barrier since the last Observe.
func (e *ShardedSubsetSumTS[T]) EstimateAt(now int64, pred func(T) bool) (float64, bool) {
	items, ok := e.s.ItemsAt(now)
	if !ok {
		return 0, false
	}
	return htEstimate(items, e.k, pred), true
}

// Estimate returns the estimate at the latest dispatched timestamp.
func (e *ShardedSubsetSumTS[T]) Estimate(pred func(T) bool) (float64, bool) {
	items, ok := e.s.Items()
	if !ok {
		return 0, false
	}
	return htEstimate(items, e.k, pred), true
}

// TotalAt estimates the total active weight W at time now through the
// sketch (unbiased HT). For the direct (1±eps) oracle see TotalWeightAt.
func (e *ShardedSubsetSumTS[T]) TotalAt(now int64) (float64, bool) {
	return e.EstimateAt(now, func(T) bool { return true })
}

// TotalWeightAt returns the (1±eps) active-weight total from the
// dispatcher's per-shard weight oracles — the estimator's scale factor,
// available without a barrier and without touching the sketch
// (producer-goroutine only, like every method).
func (e *ShardedSubsetSumTS[T]) TotalWeightAt(now int64) float64 { return e.s.TotalWeightAt(now) }

// SizeAt returns the (1±eps) effective window size n(t) at time now.
func (e *ShardedSubsetSumTS[T]) SizeAt(now int64) uint64 { return e.s.SizeAt(now) }

// K returns the sketch size (estimation slots, excluding the threshold).
func (e *ShardedSubsetSumTS[T]) K() int { return e.k }

// G returns the shard count.
func (e *ShardedSubsetSumTS[T]) G() int { return e.s.G() }

// Count returns the number of arrivals.
func (e *ShardedSubsetSumTS[T]) Count() uint64 { return e.s.Count() }

// Clock returns the sketch sampler's clock. Call it after a Barrier.
func (e *ShardedSubsetSumTS[T]) Clock() (int64, bool) { return e.s.Clock() }

// Words and MaxWords implement stream.MemoryReporter (per-shard skybands,
// embedded counters and the dispatcher's weight oracles included).
func (e *ShardedSubsetSumTS[T]) Words() int    { return 1 + e.s.Words() }
func (e *ShardedSubsetSumTS[T]) MaxWords() int { return 1 + e.s.MaxWords() }
