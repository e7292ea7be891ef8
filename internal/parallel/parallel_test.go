package parallel

import (
	"math"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

func TestShardedIndexRecovery(t *testing.T) {
	// Values carry the global index; the recovered Index must match.
	s := NewShardedSeqWR[uint64](xrand.New(1), 64, 4, 3)
	defer s.Close()
	for i := uint64(0); i < 1000; i++ {
		s.Observe(i, int64(i))
	}
	s.Barrier()
	got, ok := s.Sample()
	if !ok || len(got) != 3 {
		t.Fatalf("ok=%v len=%d", ok, len(got))
	}
	for _, e := range got {
		if e.Value != e.Index {
			t.Fatalf("index recovery broken: value %d, index %d", e.Value, e.Index)
		}
		if e.Index < 1000-64 {
			t.Fatalf("sample %d outside the global window", e.Index)
		}
	}
}

func TestShardedUniform(t *testing.T) {
	// The global sample must be uniform over the last n elements, at a
	// straddling offset, matching the sequential sampler's law.
	const n, g = 16, 4
	const m = 42 // not divisible by g: shards are mid-cycle
	const trials = 40000
	r := xrand.New(2)
	counts := make([]int, n)
	for tr := 0; tr < trials; tr++ {
		s := NewShardedSeqWR[uint64](r, n, g, 1)
		for i := uint64(0); i < m; i++ {
			s.Observe(i, int64(i))
		}
		s.Barrier()
		got, ok := s.Sample()
		if !ok {
			t.Fatal("no sample")
		}
		if got[0].Index < m-n || got[0].Index >= m {
			t.Fatalf("sample %d outside window [%d,%d)", got[0].Index, m-n, m)
		}
		counts[got[0].Index-(m-n)]++
		s.Close()
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("window pos %d: %d, want about %.0f", i, c, want)
		}
	}
}

func TestShardedWarmup(t *testing.T) {
	const n, g = 32, 4
	const trials = 30000
	r := xrand.New(3)
	// 10 arrivals (< n): window = everything; distribution uniform over 10.
	counts := make([]int, 10)
	for tr := 0; tr < trials; tr++ {
		s := NewShardedSeqWR[uint64](r, n, g, 1)
		for i := uint64(0); i < 10; i++ {
			s.Observe(i, int64(i))
		}
		s.Barrier()
		got, ok := s.Sample()
		if !ok {
			t.Fatal("no sample during warm-up")
		}
		counts[got[0].Index]++
		s.Close()
	}
	want := float64(trials) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("warm-up pos %d: %d, want about %.0f", i, c, want)
		}
	}
}

func TestShardedEmptyAndBarrierDiscipline(t *testing.T) {
	s := NewShardedSeqWR[uint64](xrand.New(4), 8, 2, 1)
	defer s.Close()
	s.Barrier()
	if _, ok := s.Sample(); ok {
		t.Fatal("sample from empty sharded sampler")
	}
	s.Observe(1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Sample without Barrier did not panic")
			}
		}()
		s.Sample()
	}()
	s.Barrier()
	if _, ok := s.Sample(); !ok {
		t.Fatal("no sample after barrier")
	}
}

func TestShardedConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewShardedSeqWR[uint64](xrand.New(1), 8, 0, 1) },
		func() { NewShardedSeqWR[uint64](xrand.New(1), 0, 2, 1) },
		func() { NewShardedSeqWR[uint64](xrand.New(1), 9, 2, 1) }, // 9 % 2 != 0
		func() { NewShardedSeqWR[uint64](xrand.New(1), 8, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad constructor args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestShardedRepeatedBarriers(t *testing.T) {
	// Observe/Barrier/Sample cycles must keep working (barriers are
	// checkpoints, not terminators).
	s := NewShardedSeqWR[uint64](xrand.New(5), 16, 4, 2)
	defer s.Close()
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			s.Observe(uint64(round*7+i), int64(round*7+i))
		}
		s.Barrier()
		got, ok := s.Sample()
		if !ok || len(got) != 2 {
			t.Fatalf("round %d: ok=%v len=%d", round, ok, len(got))
		}
		latest := uint64(round*7 + 6)
		lo := uint64(0)
		if latest >= 16 {
			lo = latest - 15
		}
		for _, e := range got {
			if e.Index < lo || e.Index > latest {
				t.Fatalf("round %d: sample %d outside [%d,%d]", round, e.Index, lo, latest)
			}
		}
	}
	if s.Count() != 350 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Words() <= 0 || s.MaxWords() < s.Words() {
		t.Fatal("words accounting broken")
	}
}

// TestSyncedBarrierSendsNothing: a barrier with nothing dealt since the
// last one returns without a round trip. The shard channels are swapped
// for unbuffered ones with no worker behind them, so a barrier that still
// sends is caught at its first send (and then answered, so it can finish).
func TestSyncedBarrierSendsNothing(t *testing.T) {
	s := NewShardedSeqWR[uint64](xrand.New(6), 16, 4, 2)
	defer s.Close()
	s.Observe(1, 0)
	s.Barrier()
	d := s.d
	live := d.chans
	d.chans = make([]chan msg[uint64], len(live))
	for i := range d.chans {
		d.chans[i] = make(chan msg[uint64])
	}
	done := make(chan struct{})
	go func() {
		d.barrier()
		close(done)
	}()
	for i, ch := range d.chans {
		select {
		case m := <-ch:
			t.Errorf("synced barrier sent a flush message to shard %d", i)
			m.barrier.Done()
		case <-done:
		}
	}
	<-done
	d.chans = live
	if _, ok := s.Sample(); !ok {
		t.Fatal("no sample after a synced barrier")
	}
}

func TestShardedMemoryLinearInShards(t *testing.T) {
	// Total memory is G * Θ(k): still independent of n.
	for _, g := range []int{1, 4, 16} {
		s := NewShardedSeqWR[uint64](xrand.New(6), 1<<16, g, 2)
		for i := uint64(0); i < 1<<17; i++ {
			s.Observe(i, 0)
		}
		s.Close()
		bound := 3 + g*(3+2*(1+6)) // dispatcher + per shard: params + 2 copies * (counter + stored)
		if s.MaxWords() > bound {
			t.Fatalf("g=%d: MaxWords %d exceeds %d", g, s.MaxWords(), bound)
		}
	}
}

// ---------------------------------------------------------------------------
// Timestamp-window sharding
// ---------------------------------------------------------------------------

func TestShardedTSWRUniformYoungStream(t *testing.T) {
	// While the stream is younger than the window the exponential histogram
	// is exact, so the cross-shard weights are exact and the global law must
	// match the sequential Theorem 3.9 law: uniform over all arrivals.
	const t0, g, m = 100, 4, 40
	const trials = 40000
	r := xrand.New(21)
	counts := make([]int, m)
	for tr := 0; tr < trials; tr++ {
		s := NewShardedTSWR[uint64](r, t0, g, 1, 0.05)
		for i := uint64(0); i < m; i++ {
			s.Observe(i, int64(i))
		}
		s.Barrier()
		got, ok := s.SampleAt(m - 1)
		if !ok {
			t.Fatal("no sample")
		}
		if got[0].Value != got[0].Index {
			t.Fatalf("index recovery broken: value %d, index %d", got[0].Value, got[0].Index)
		}
		counts[got[0].Index]++
		s.Close()
	}
	want := float64(trials) / m
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("pos %d: %d, want about %.0f", i, c, want)
		}
	}
}

func TestShardedTSWRExpiryMembership(t *testing.T) {
	// After expiry the estimate may carry eps error, but every returned
	// element must still be active and index recovery must hold.
	const t0, g, k, m = 64, 4, 8, 500
	s := NewShardedTSWR[uint64](xrand.New(22), t0, g, k, 0.05)
	defer s.Close()
	for i := uint64(0); i < m; i++ {
		s.Observe(i, int64(i/2)) // two arrivals per tick
	}
	s.Barrier()
	now := int64((m - 1) / 2)
	for q := 0; q < 50; q++ {
		got, ok := s.SampleAt(now)
		if !ok || len(got) != k {
			t.Fatalf("ok=%v len=%d", ok, len(got))
		}
		for _, e := range got {
			if e.Value != e.Index {
				t.Fatalf("index recovery broken: value %d index %d", e.Value, e.Index)
			}
			if now-e.TS >= t0 {
				t.Fatalf("expired element sampled: ts %d at now %d", e.TS, now)
			}
		}
	}
}

func TestShardedTSWORDistinctAndWarmup(t *testing.T) {
	const t0, g, k = 50, 4, 6
	r := xrand.New(23)

	// Warm-up: fewer active elements than k returns the whole window.
	s := NewShardedTSWOR[uint64](r, t0, g, k, 0.05)
	for i := uint64(0); i < 3; i++ {
		s.Observe(i, int64(i))
	}
	s.Barrier()
	got, ok := s.SampleAt(2)
	if !ok || len(got) != 3 {
		t.Fatalf("warm-up: ok=%v len=%d, want 3", ok, len(got))
	}
	s.Close()

	// Steady state: k distinct active elements.
	s = NewShardedTSWOR[uint64](r, t0, g, k, 0.05)
	defer s.Close()
	for i := uint64(0); i < 400; i++ {
		s.Observe(i, int64(i/4))
	}
	s.Barrier()
	now := int64(399 / 4)
	for q := 0; q < 50; q++ {
		got, ok := s.SampleAt(now)
		if !ok {
			t.Fatal("no sample")
		}
		if len(got) > k {
			t.Fatalf("more than k elements: %d", len(got))
		}
		seen := map[uint64]bool{}
		for _, e := range got {
			if seen[e.Index] {
				t.Fatalf("duplicate index %d in WOR sample", e.Index)
			}
			seen[e.Index] = true
			if e.Value != e.Index {
				t.Fatalf("index recovery broken: value %d index %d", e.Value, e.Index)
			}
			if now-e.TS >= t0 {
				t.Fatalf("expired element sampled: ts %d at now %d", e.TS, now)
			}
		}
	}
}

func TestShardedTSWORUniformYoungStream(t *testing.T) {
	// Young stream, k=2 WOR: every pair of arrivals equally likely (the
	// estimate is exact, so the law matches sequential Theorem 4.4).
	const t0, g, m, k = 100, 3, 9, 2
	const trials = 30000
	r := xrand.New(24)
	counts := map[[2]uint64]int{}
	for tr := 0; tr < trials; tr++ {
		s := NewShardedTSWOR[uint64](r, t0, g, k, 0.05)
		for i := uint64(0); i < m; i++ {
			s.Observe(i, int64(i))
		}
		s.Barrier()
		got, ok := s.SampleAt(m - 1)
		if !ok || len(got) != k {
			t.Fatalf("ok=%v len=%d", ok, len(got))
		}
		a, b := got[0].Index, got[1].Index
		if a > b {
			a, b = b, a
		}
		counts[[2]uint64{a, b}]++
		s.Close()
	}
	cells := m * (m - 1) / 2
	want := float64(trials) / float64(cells)
	if len(counts) != cells {
		t.Fatalf("only %d of %d pairs ever sampled", len(counts), cells)
	}
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("pair %v: %d, want about %.0f", pair, c, want)
		}
	}
}

func TestShardedBatchMatchesLoop(t *testing.T) {
	// Identically seeded sharded samplers, one fed per element and one in
	// irregular batches, must agree exactly (the E16 invariant, unit-sized).
	const n, g, k = 64, 4, 3
	mk := func(seed uint64) *ShardedSeqWR[uint64] {
		return NewShardedSeqWR[uint64](xrand.New(seed), n, g, k)
	}
	loop, batch := mk(31), mk(31)
	defer loop.Close()
	defer batch.Close()
	var buf []stream.Element[uint64]
	sizes := []int{1, 5, 17, 2, 64}
	i := uint64(0)
	for len(sizes) > 0 {
		sz := sizes[0]
		sizes = sizes[1:]
		buf = buf[:0]
		for j := 0; j < sz; j++ {
			loop.Observe(i, int64(i))
			buf = append(buf, stream.Element[uint64]{Value: i, TS: int64(i)})
			i++
		}
		batch.ObserveBatch(buf)
	}
	loop.Barrier()
	batch.Barrier()
	if loop.Count() != batch.Count() || loop.Words() != batch.Words() || loop.MaxWords() != batch.MaxWords() {
		t.Fatalf("state diverged: count %d/%d words %d/%d peak %d/%d",
			loop.Count(), batch.Count(), loop.Words(), batch.Words(), loop.MaxWords(), batch.MaxWords())
	}
	la, lok := loop.Sample()
	ba, bok := batch.Sample()
	if !lok || !bok || len(la) != len(ba) {
		t.Fatalf("sample shape diverged: %v %v", lok, bok)
	}
	for j := range la {
		if la[j] != ba[j] {
			t.Fatalf("slot %d diverged: %+v vs %+v", j, la[j], ba[j])
		}
	}
}
