package apps

import (
	"io"

	"slidingsample/internal/parallel"
	"slidingsample/internal/snap"
	"slidingsample/internal/weighted"
)

// Snapshot kind tags.
const (
	kindSubsetSum          = "apps.SubsetSum"
	kindSubsetSumTS        = "apps.SubsetSumTS"
	kindShardedSubsetSumTS = "apps.ShardedSubsetSumTS"
)

// The estimators are thin shells over their weighted samplers: the
// persistent state is the sketch size plus the embedded sampler's body.
// Weight functions are code, not state — every Restore* re-binds one.

// decodeSketch reads an estimator body: the sketch size k, then the
// embedded sampler through decode, which must hold k+1 slots. A refused
// sampler is closed, so a sharded sketch's shard workers do not outlive
// the refusal.
func decodeSketch[S interface{ K() int }](r *snap.Reader, kind string, decode func(*snap.Reader) S) (k int, s S) {
	k = r.Int()
	if r.Err() != nil {
		return k, s
	}
	if k < 1 {
		r.Failf("%s with k %d", kind, k)
		return k, s
	}
	s = decode(r)
	if r.Err() == nil && s.K() != k+1 {
		r.Failf("%s sketch slots %d != k+1 = %d", kind, s.K(), k+1)
		if c, ok := any(s).(interface{ Close() }); ok {
			c.Close()
		}
	}
	return k, s
}

// Snapshot writes the estimator's full state (header included) to w.
func (e *SubsetSum[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindSubsetSum, e, func(w *snap.Writer, e *SubsetSum[T]) {
		w.Int(e.k)
		weighted.EncodeWOR(w, e.s)
	})
}

// RestoreSubsetSum reads a SubsetSum snapshot, re-binding the given
// weight function.
func RestoreSubsetSum[T any](r io.Reader, weight func(T) float64) (*SubsetSum[T], error) {
	return snap.Restore(r, kindSubsetSum, func(r *snap.Reader) *SubsetSum[T] {
		k, s := decodeSketch(r, kindSubsetSum, func(r *snap.Reader) *weighted.WOR[T] { return weighted.DecodeWOR(r, weight) })
		return &SubsetSum[T]{k: k, s: s}
	})
}

// Snapshot writes the estimator's full state (header included) to w.
func (e *SubsetSumTS[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindSubsetSumTS, e, func(w *snap.Writer, e *SubsetSumTS[T]) {
		w.Int(e.k)
		weighted.EncodeTSWOR(w, e.s)
	})
}

// RestoreSubsetSumTS reads a SubsetSumTS snapshot, re-binding the given
// weight function.
func RestoreSubsetSumTS[T any](r io.Reader, weight func(T) float64) (*SubsetSumTS[T], error) {
	return snap.Restore(r, kindSubsetSumTS, func(r *snap.Reader) *SubsetSumTS[T] {
		k, s := decodeSketch(r, kindSubsetSumTS, func(r *snap.Reader) *weighted.TSWOR[T] { return weighted.DecodeTSWOR(r, weight) })
		return &SubsetSumTS[T]{k: k, s: s}
	})
}

// Snapshot writes the estimator's full state (header included) to w. The
// embedded sharded sampler drains an ingest barrier first; like every
// method, Snapshot belongs to the producer goroutine.
func (e *ShardedSubsetSumTS[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindShardedSubsetSumTS, e, func(w *snap.Writer, e *ShardedSubsetSumTS[T]) {
		w.Int(e.k)
		parallel.EncodeShardedWeightedTSWOR(w, e.s)
	})
}

// RestoreShardedSubsetSumTS reads a ShardedSubsetSumTS snapshot,
// re-binding the given weight function, and starts the shard workers.
func RestoreShardedSubsetSumTS[T any](r io.Reader, weight func(T) float64) (*ShardedSubsetSumTS[T], error) {
	return snap.Restore(r, kindShardedSubsetSumTS, func(r *snap.Reader) *ShardedSubsetSumTS[T] {
		k, s := decodeSketch(r, kindShardedSubsetSumTS, func(r *snap.Reader) *parallel.ShardedWeightedTSWOR[T] {
			return parallel.DecodeShardedWeightedTSWOR(r, weight)
		})
		return &ShardedSubsetSumTS[T]{k: k, s: s}
	})
}
