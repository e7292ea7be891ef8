package parallel

import (
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// raceSubstrates builds every sharded sampler behind the unified interface
// (queries need a Barrier first, which the cycle below always holds).
func raceSubstrates() map[string]func(r *xrand.Rand) stream.Sampler[uint64] {
	const (
		n   = 256
		t0  = 32
		g   = 4
		k   = 5
		eps = 0.05
	)
	weight := func(v uint64) float64 { return float64(v%9) + 1 }
	return map[string]func(r *xrand.Rand) stream.Sampler[uint64]{
		"ShardedSeqWR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedSeqWR[uint64](r, n, g, k)
		},
		"ShardedTSWR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedTSWR[uint64](r, t0, g, k, eps)
		},
		"ShardedTSWOR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedTSWOR[uint64](r, t0, g, k, eps)
		},
		// The weighted substrates exercise the weight-aware dispatch: the
		// weight halves of the dealt shard slices cross goroutines, and
		// come back on the free lists, exactly like the element halves.
		"ShardedWeightedSeqWOR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedWeightedSeqWOR[uint64](r, n, g, k, eps, weight)
		},
		"ShardedWeightedSeqWR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedWeightedSeqWR[uint64](r, n, g, k, eps, weight)
		},
		"ShardedWeightedTSWOR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedWeightedTSWOR[uint64](r, t0, g, k, eps, weight)
		},
		"ShardedWeightedTSWR": func(r *xrand.Rand) stream.Sampler[uint64] {
			return NewShardedWeightedTSWR[uint64](r, t0, g, k, eps, weight)
		},
	}
}

// TestShardedIngestRace drives ObserveBatch + Observe cycles, with a
// Barrier + Sample every third cycle, through every sharded sampler. Its
// value is under `go test -race` (a CI step): the producer-side dealing,
// the worker goroutines, the barrier flush, and the shard-batch slices
// that workers hand back on their free lists all hand memory across
// goroutines, and this cycle makes every hand-off happen many times —
// including slices re-dealt between barriers, taken off a free list with
// only its channel ordering them, the exact path a reuse bug would race
// on.
func TestShardedIngestRace(t *testing.T) {
	for name, mk := range raceSubstrates() {
		t.Run(name, func(t *testing.T) {
			s := mk(xrand.New(21))
			defer func() {
				if c, ok := s.(interface{ Close() }); ok {
					c.Close()
				}
			}()
			barrier := func() {
				if b, ok := s.(interface{ Barrier() }); ok {
					b.Barrier()
				}
			}
			// Irregular batch sizes, single-element dispatches mixed in, a
			// query (under a barrier) every third cycle, so three batches
			// are dealt between barriers. Batches reuse one caller buffer —
			// the dispatcher must have copied what it needs by the time
			// ObserveBatch returns.
			sizes := []int{1, 7, 256, 3, 64, 512, 2}
			buf := make([]stream.Element[uint64], 0, 512)
			idx := 0
			for cycle := 0; cycle < 90; cycle++ {
				sz := sizes[cycle%len(sizes)]
				buf = buf[:0]
				for j := 0; j < sz; j++ {
					buf = append(buf, stream.Element[uint64]{Value: uint64(idx), TS: int64(idx / 3)})
					idx++
				}
				s.ObserveBatch(buf)
				s.Observe(uint64(idx), int64(idx/3))
				idx++
				if cycle%3 != 2 {
					continue
				}
				barrier()
				got, ok := s.Sample()
				if !ok {
					t.Fatalf("cycle %d: no sample from a non-empty window", cycle)
				}
				for _, e := range got {
					if e.Value != e.Index {
						t.Fatalf("cycle %d: dealt element corrupted: value %d at index %d", cycle, e.Value, e.Index)
					}
				}
			}
			if s.Count() != uint64(idx) {
				t.Fatalf("Count = %d, want %d", s.Count(), idx)
			}
		})
	}
}

// TestShardedBatchReuseEquivalence pins the recycle path to the dealing
// semantics: a sampler fed through many batches (forcing buffer reuse) must
// agree exactly with an identically seeded sampler fed per element.
func TestShardedBatchReuseEquivalence(t *testing.T) {
	for name, mk := range raceSubstrates() {
		t.Run(name, func(t *testing.T) {
			loop := mk(xrand.New(33))
			batch := mk(xrand.New(33))
			closeAll := func(s stream.Sampler[uint64]) {
				if c, ok := s.(interface{ Close() }); ok {
					c.Close()
				}
			}
			defer closeAll(loop)
			defer closeAll(batch)

			const m = 4000
			for i := 0; i < m; i++ {
				loop.Observe(uint64(i), int64(i/3))
			}
			buf := make([]stream.Element[uint64], 0, 128)
			for i := 0; i < m; {
				sz := 1 + (i*7)%127
				if i+sz > m {
					sz = m - i
				}
				buf = buf[:0]
				for j := 0; j < sz; j++ {
					buf = append(buf, stream.Element[uint64]{Value: uint64(i + j), TS: int64((i + j) / 3)})
				}
				batch.ObserveBatch(buf)
				i += sz
			}
			for _, s := range []stream.Sampler[uint64]{loop, batch} {
				if b, ok := s.(interface{ Barrier() }); ok {
					b.Barrier()
				}
			}
			if loop.Count() != batch.Count() {
				t.Fatalf("Count diverged: %d vs %d", loop.Count(), batch.Count())
			}
			la, lok := loop.Sample()
			ba, bok := batch.Sample()
			if lok != bok || len(la) != len(ba) {
				t.Fatalf("sample shape diverged: %v/%v len %d/%d", lok, bok, len(la), len(ba))
			}
			for i := range la {
				if la[i] != ba[i] {
					t.Fatalf("slot %d diverged: %+v vs %+v", i, la[i], ba[i])
				}
			}
		})
	}
}
