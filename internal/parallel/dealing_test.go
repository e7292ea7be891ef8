package parallel

import (
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// TestCheckpointedIngestAllocatesNothing: once warm, ingest on the
// checkpointed cadence (a batch, then a barrier) allocates nothing for the
// dealing. Every shard slice comes off its shard's free list, the
// barrier's round trip brings it back, and the flush marker is reused.
//
// A warm weighted timestamp shard allocates nothing itself, so its cadence
// must read 0. A core.SeqWR shard allocates a sample holder whenever one
// of its reservoirs replaces its sample, so the ShardedSeqWR cadence is
// compared with a twin built from the same seed whose shards are fed the
// same slices directly: the shards make the same draws, so any difference
// is the dealing's.
func TestCheckpointedIngestAllocatesNothing(t *testing.T) {
	const (
		g     = 4
		batch = 256
	)
	buf := make([]stream.Element[uint64], batch)
	ws := make([]float64, batch)
	var split [g][]stream.Element[uint64]
	for i := range split {
		split[i] = make([]stream.Element[uint64], 0, batch/g)
	}
	next := 0
	fill := func() {
		for i := range split {
			split[i] = split[i][:0]
		}
		for j := range buf {
			buf[j] = stream.Element[uint64]{Value: uint64(next), TS: int64(next / 4)}
			ws[j] = float64(next%9) + 1
			split[j%g] = append(split[j%g], buf[j])
			next++
		}
	}
	warm := func(feed func()) {
		// Several windows, so every sampler and weight oracle has grown to
		// its steady-state capacity.
		for range 200 {
			feed()
		}
	}

	t.Run("ShardedWeightedTSWOR", func(t *testing.T) {
		s := NewShardedWeightedTSWOR[uint64](xrand.New(1), 512, g, 16, 0.05, func(v uint64) float64 { return float64(v%9) + 1 })
		defer s.Close()
		feed := func() {
			fill()
			s.ObserveWeightedBatch(buf, ws)
			s.Barrier()
		}
		warm(feed)
		if a := testing.AllocsPerRun(100, feed); a != 0 {
			t.Fatalf("%v allocations per batch and barrier, want 0", a)
		}
	})

	t.Run("ShardedSeqWR", func(t *testing.T) {
		dealt := NewShardedSeqWR[uint64](xrand.New(1), 1<<12, g, 16)
		defer dealt.Close()
		twin := NewShardedSeqWR[uint64](xrand.New(1), 1<<12, g, 16)
		defer twin.Close()
		next = 0
		deal := func() {
			fill()
			dealt.ObserveBatch(buf)
			dealt.Barrier()
		}
		direct := func() {
			fill()
			for i, sh := range twin.seq {
				sh.ObserveBatch(split[i])
			}
		}
		warm(deal)
		next = 0
		warm(direct)
		start := next
		a := testing.AllocsPerRun(100, deal)
		next = start
		if b := testing.AllocsPerRun(100, direct); a != b {
			t.Fatalf("%v allocations per batch and barrier, against %v for the shards alone", a, b)
		}
	})
}

// TestHandedBackSlicesPinNothing: a slice on a shard's free list holds zero
// values through its whole capacity, so a recycled slice never keeps a
// dealt payload alive. The elements are pointers, and the batches are
// dealt with and without barriers between them, so slices are re-dealt
// and grow.
func TestHandedBackSlicesPinNothing(t *testing.T) {
	s := NewShardedSeqWR[*int](xrand.New(2), 64, 4, 2)
	defer s.Close()
	for round := range 8 {
		batch := make([]stream.Element[*int], 5+round*9)
		for j := range batch {
			v := round*100 + j
			batch[j] = stream.Element[*int]{Value: &v}
		}
		s.ObserveBatch(batch)
		if round%3 == 2 {
			s.Barrier()
		}
	}
	s.Barrier()
	for i, free := range s.d.free {
		n := 0
		for len(free) > 0 {
			b := <-free
			n++
			for j, e := range b.elems[:cap(b.elems)] {
				if e != (stream.Element[*int]{}) {
					t.Fatalf("shard %d: free-listed slice holds %+v at %d (len %d, cap %d)", i, e, j, len(b.elems), cap(b.elems))
				}
			}
		}
		if n == 0 {
			t.Fatalf("shard %d: no slice on the free list after a barrier", i)
		}
	}
}

// TestClosedTSDispatchKeepsItsClock: ingest after Close panics before the
// dispatch's size estimator or clock sees the element, so a recovered
// panic leaves both where the last dealt arrival put them.
func TestClosedTSDispatchKeepsItsClock(t *testing.T) {
	wr := NewShardedTSWR[uint64](xrand.New(3), 50, 2, 2, 0.1)
	wor := NewShardedTSWOR[uint64](xrand.New(3), 50, 2, 2, 0.1)
	for name, c := range map[string]struct {
		s  stream.TimedSampler[uint64]
		ts *tsDispatch[uint64]
	}{"ShardedTSWR": {wr, wr.ts}, "ShardedTSWOR": {wor, wor.ts}} {
		t.Run(name, func(t *testing.T) {
			c.s.Observe(1, 5)
			c.ts.d.close()
			for what, ingest := range map[string]func(){
				"Observe":      func() { c.s.Observe(2, 100) },
				"ObserveBatch": func() { c.s.ObserveBatch([]stream.Element[uint64]{{Value: 2, TS: 100}}) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s after Close did not panic", what)
						}
					}()
					ingest()
				}()
				if now, ok := c.ts.now, c.ts.begun; now != 5 || !ok {
					t.Fatalf("%s after Close moved the dispatch clock to (%d, %v), want (5, true)", what, now, ok)
				}
				if now, _ := c.ts.est.Clock(); now != 5 {
					t.Fatalf("%s after Close moved the estimator clock to %d, want 5", what, now)
				}
				if n := c.ts.est.Estimate(); n != 1 {
					t.Fatalf("%s after Close left the estimator counting %d elements, want 1", what, n)
				}
			}
		})
	}
}
