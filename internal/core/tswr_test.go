package core

import (
	"math"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// feedPattern feeds elements with the given timestamps (values = indexes).
func feedPattern(s *TSWR[uint64], pattern []int64) {
	for i, ts := range pattern {
		s.Observe(uint64(i), ts)
	}
}

// activeSet returns the indexes active at `now` for horizon t0 given the
// timestamp pattern.
func activeSet(pattern []int64, t0, now int64) []uint64 {
	w := window.Timestamp{T0: t0}
	var out []uint64
	for i, ts := range pattern {
		if ts <= now && w.Active(ts, now) {
			out = append(out, uint64(i))
		}
	}
	return out
}

// burstyPattern is a fixed, irregular arrival pattern used across the TSWR
// tests: bursts of different sizes with gaps, so that query times exercise
// straddling buckets, fully-covered windows, and empty windows.
func burstyPattern() []int64 {
	var p []int64
	add := func(ts int64, count int) {
		for i := 0; i < count; i++ {
			p = append(p, ts)
		}
	}
	add(0, 7)
	add(1, 1)
	add(4, 12)
	add(5, 2)
	add(9, 5)
	add(12, 3)
	add(13, 9)
	add(17, 1)
	return p
}

func TestTSWREmptyAndConstructorPanics(t *testing.T) {
	s := NewTSWR[uint64](xrand.New(1), 10, 1)
	if _, ok := s.Sample(); ok {
		t.Fatal("empty sampler returned a sample")
	}
	if _, ok := s.SampleAt(100); ok {
		t.Fatal("empty sampler returned a sample at a late time")
	}
	for _, tc := range []struct {
		t0 int64
		k  int
	}{{0, 1}, {-5, 1}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewTSWR(t0=%d,k=%d) did not panic", tc.t0, tc.k)
				}
			}()
			NewTSWR[uint64](xrand.New(1), tc.t0, tc.k)
		}()
	}
}

func TestTSWRSampleAlwaysActive(t *testing.T) {
	// On a random bursty stream, every sample returned at every step must be
	// an active element.
	r := xrand.New(2)
	arr := streamBursty(r.Split(), 2000)
	s := NewTSWR[uint64](r.Split(), 7, 2)
	w := window.Timestamp{T0: 7}
	for i, ts := range arr {
		s.Observe(uint64(i), ts)
		got, ok := s.Sample()
		if !ok {
			t.Fatalf("step %d: no sample though an element just arrived", i)
		}
		for _, e := range got {
			if w.Expired(e.TS, ts) {
				t.Fatalf("step %d: sampled expired element (ts=%d now=%d)", i, e.TS, ts)
			}
			if int(e.Index) > i {
				t.Fatalf("step %d: sampled future index %d", i, e.Index)
			}
		}
	}
}

// streamBursty builds a random non-decreasing timestamp sequence.
func streamBursty(r *xrand.Rand, n int) []int64 {
	out := make([]int64, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		if r.Uint64n(5) == 0 {
			ts += int64(r.Uint64n(4))
		}
		out[i] = ts
	}
	return out
}

// TestTSWRUniform is the Theorem 3.9 correctness check: on a fixed bursty
// pattern, at several query times (windows fully covered, straddling and
// nearly expired), the sample is uniform over the exact active set.
func TestTSWRUniform(t *testing.T) {
	const t0 = 10
	const trials = 60000
	pattern := burstyPattern()
	r := xrand.New(3)
	for _, now := range []int64{0, 4, 9, 13, 14, 17, 20, 22} {
		act := activeSet(pattern, t0, now)
		if len(act) == 0 {
			t.Fatalf("now=%d: empty active set; pick another query time", now)
		}
		pos := make(map[uint64]int, len(act))
		for i, idx := range act {
			pos[idx] = i
		}
		counts := make([]int, len(act))
		for tr := 0; tr < trials; tr++ {
			s := NewTSWR[uint64](r, t0, 1)
			// Feed only elements that have arrived by `now`.
			for i, ts := range pattern {
				if ts <= now {
					s.Observe(uint64(i), ts)
				}
			}
			got, ok := s.SampleAt(now)
			if !ok {
				t.Fatalf("now=%d: no sample", now)
			}
			p, known := pos[got[0].Index]
			if !known {
				t.Fatalf("now=%d: sampled inactive index %d", now, got[0].Index)
			}
			counts[p]++
		}
		want := float64(trials) / float64(len(act))
		for i, c := range counts {
			if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
				t.Errorf("now=%d: active element %d (idx %d) sampled %d times, want about %.0f",
					now, i, act[i], c, want)
			}
		}
	}
}

// TestTSWRCopiesIndependent: k=2 slots over a straddling-window state must
// produce a product-of-uniforms joint distribution.
func TestTSWRCopiesIndependent(t *testing.T) {
	const t0, now = 10, 13
	const trials = 200000
	pattern := burstyPattern()
	act := activeSet(pattern, t0, now)
	pos := map[uint64]int{}
	for i, idx := range act {
		pos[idx] = i
	}
	n := len(act)
	r := xrand.New(4)
	joint := make([]int, n*n)
	for tr := 0; tr < trials; tr++ {
		s := NewTSWR[uint64](r, t0, 2)
		for i, ts := range pattern {
			if ts <= now {
				s.Observe(uint64(i), ts)
			}
		}
		got, _ := s.SampleAt(now)
		joint[pos[got[0].Index]*n+pos[got[1].Index]]++
	}
	want := float64(trials) / float64(n*n)
	for i, c := range joint {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("joint cell %d: %d, want about %.0f", i, c, want)
		}
	}
}

// TestTSWRStateTransitions walks the Lemma 3.5 case analysis explicitly.
func TestTSWRStateTransitions(t *testing.T) {
	const t0 = 10
	s := NewTSWR[uint64](xrand.New(5), t0, 1)

	// Basic filling: case 1, no straddle.
	for i := 0; i < 8; i++ {
		s.Observe(uint64(i), 0)
	}
	if s.straddle != nil {
		t.Fatal("straddle appeared while everything is active")
	}

	// Case 2c: some prefix expires -> straddle selected.
	s.Observe(8, 5)                   // still all active
	if _, ok := s.SampleAt(11); !ok { // ts=0 elements expire (11-0 >= 10)
		t.Fatal("sample failed after partial expiry")
	}
	if s.straddle == nil {
		t.Fatal("no straddle after partial expiry (case 2c)")
	}
	now, _ := s.Clock()
	if (window.Timestamp{T0: t0}).Active(s.straddle.First.TS, now) {
		t.Fatal("straddle first element must be expired")
	}
	if s.d.Empty() {
		t.Fatal("suffix decomposition empty in case 2")
	}
	if !(window.Timestamp{T0: t0}).Active(s.d.At(0).First.TS, now) {
		t.Fatal("p_z must be active in case 2")
	}
	if s.straddle.Width() > s.d.TotalWidth() {
		t.Fatalf("alpha=%d > beta=%d: Lemma 3.5 invariant violated", s.straddle.Width(), s.d.TotalWidth())
	}

	// Case 3a: new arrivals keep the straddle.
	old := s.straddle
	s.Observe(9, 12)
	if s.straddle != old {
		t.Fatal("straddle replaced although p_z still active (case 3a)")
	}

	// Case 3b: everything expires -> full reset.
	if _, ok := s.SampleAt(100); ok {
		t.Fatal("sample returned after full expiry")
	}
	if s.straddle != nil || !s.d.Empty() {
		t.Fatal("state not cleared on full expiry (case 3b)")
	}

	// Fresh start after reset (case 1 re-established).
	s.Observe(10, 101)
	got, ok := s.Sample()
	if !ok || got[0].Index != 10 {
		t.Fatal("sampler unusable after reset")
	}
}

// TestTSWRInvariantsUnderRandomRuns drives random bursty streams with
// interleaved queries and asserts the Lemma 3.5 invariants after every
// operation.
func TestTSWRInvariantsUnderRandomRuns(t *testing.T) {
	w := window.Timestamp{T0: 13}
	for seed := uint64(0); seed < 10; seed++ {
		r := xrand.New(seed)
		s := NewTSWR[uint64](r.Split(), 13, 2)
		arr := streamBursty(r.Split(), 3000)
		check := func(step int) {
			if s.d.Empty() {
				return
			}
			d := s.d
			now, _ := s.Clock()
			for i := 1; i < d.Len(); i++ {
				if d.At(i).X != d.At(i-1).Y {
					t.Fatalf("seed %d step %d: decomposition gap", seed, step)
				}
			}
			if !w.Active(d.Last().First.TS, now) {
				t.Fatalf("seed %d step %d: newest element expired but structure kept", seed, step)
			}
			if s.straddle != nil {
				if w.Active(s.straddle.First.TS, now) {
					t.Fatalf("seed %d step %d: straddle first active", seed, step)
				}
				if s.straddle.Y != d.At(0).X {
					t.Fatalf("seed %d step %d: straddle not adjacent to suffix", seed, step)
				}
				if s.straddle.Width() > d.TotalWidth() {
					t.Fatalf("seed %d step %d: alpha > beta", seed, step)
				}
			} else {
				// Case 1: the head bucket's first element must be active
				// only if nothing before it could be active; weaker check:
				// head first is the oldest retained and must be active.
				if !w.Active(d.At(0).First.TS, now) {
					t.Fatalf("seed %d step %d: case-1 head expired without straddle", seed, step)
				}
			}
		}
		for i, ts := range arr {
			s.Observe(uint64(i), ts)
			check(i)
			if i%7 == 0 {
				// Query at the current time (querying ahead would forbid
				// subsequent same-timestamp arrivals).
				s.SampleAt(ts)
				check(i)
			}
		}
	}
}

// TestTSWRMemoryDeterministic is the Theorem 3.9 memory claim: Words() never
// exceeds c*k*log2(arrivals) + c' at any point, on adversarially bursty
// input, deterministically.
func TestTSWRMemoryDeterministic(t *testing.T) {
	for _, k := range []int{1, 4} {
		r := xrand.New(7)
		s := NewTSWR[uint64](r.Split(), 50, k)
		arr := streamBursty(r.Split(), 60000)
		for i, ts := range arr {
			s.Observe(uint64(i), ts)
			m := uint64(i + 1)
			bound := 4 + (2*int(floorLog2(m))+3)*bsWords(k)
			if w := s.Words(); w > bound {
				t.Fatalf("k=%d step %d: Words=%d exceeds deterministic bound %d", k, i, w, bound)
			}
		}
	}
}

// TestTSWRBurstThenQuiet: a large burst followed by silence; queries as the
// window slides off the burst must stay uniform over the shrinking suffix
// and eventually report an empty window. This exercises expiry-on-query
// (advance without arrivals).
func TestTSWRBurstThenQuiet(t *testing.T) {
	const t0 = 5
	const trials = 40000
	// 20 elements at ts=0..2, then nothing.
	pattern := make([]int64, 0, 20)
	for i := 0; i < 8; i++ {
		pattern = append(pattern, 0)
	}
	for i := 0; i < 7; i++ {
		pattern = append(pattern, 1)
	}
	for i := 0; i < 5; i++ {
		pattern = append(pattern, 2)
	}
	r := xrand.New(8)
	for _, now := range []int64{2, 5, 6} {
		act := activeSet(pattern, t0, now)
		counts := map[uint64]int{}
		for tr := 0; tr < trials; tr++ {
			s := NewTSWR[uint64](r, t0, 1)
			feedPattern(s, pattern)
			got, ok := s.SampleAt(now)
			if !ok {
				t.Fatalf("now=%d: no sample, active=%d", now, len(act))
			}
			counts[got[0].Index]++
		}
		want := float64(trials) / float64(len(act))
		for _, idx := range act {
			if math.Abs(float64(counts[idx])-want) > 5*math.Sqrt(want) {
				t.Errorf("now=%d idx=%d: %d, want about %.0f", now, idx, counts[idx], want)
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != trials {
			t.Errorf("now=%d: sampled inactive elements (%d of %d trials valid)", now, total, trials)
		}
	}
	// After the window slides past everything: empty.
	s := NewTSWR[uint64](r, t0, 1)
	feedPattern(s, pattern)
	if _, ok := s.SampleAt(7); ok {
		t.Fatal("sample returned from a fully expired window")
	}
}

func TestTSWRTimeMonotonicityPanics(t *testing.T) {
	s := NewTSWR[uint64](xrand.New(9), 10, 1)
	s.Observe(0, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards timestamp did not panic")
		}
	}()
	s.Observe(1, 4)
}

func TestTSWRQueryClockNeverRewinds(t *testing.T) {
	s := NewTSWR[uint64](xrand.New(10), 10, 1)
	s.Observe(0, 5)
	s.SampleAt(20) // everything expires
	// Querying at an earlier time must not resurrect the window.
	if _, ok := s.SampleAt(6); ok {
		t.Fatal("query at an earlier time resurrected expired elements")
	}
	if now, _ := s.Clock(); now != 20 {
		t.Fatalf("clock rewound to %d", now)
	}
}

func TestTSWRDeterminism(t *testing.T) {
	run := func() []uint64 {
		r := xrand.New(42)
		s := NewTSWR[uint64](r.Split(), 9, 2)
		arr := streamBursty(r.Split(), 500)
		var out []uint64
		for i, ts := range arr {
			s.Observe(uint64(i), ts)
			if got, ok := s.Sample(); ok {
				for _, e := range got {
					out = append(out, e.Index)
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("determinism broken: lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at %d", i)
		}
	}
}

func TestTSWRForEachStoredAndAccessors(t *testing.T) {
	s := NewTSWR[uint64](xrand.New(11), 10, 2)
	for i := 0; i < 50; i++ {
		s.Observe(uint64(i), int64(i/5))
	}
	slots := 0
	s.ForEachStored(func(st *stream.Stored[uint64]) { slots++ })
	wantMax := 2 * 2 * s.bucketCount() // (R+Q) * k per bucket
	if slots == 0 || slots > wantMax {
		t.Fatalf("visited %d slots, want between 1 and %d", slots, wantMax)
	}
	if s.Horizon() != 10 || s.K() != 2 || s.Count() != 50 {
		t.Fatalf("accessors wrong: %d %d %d", s.Horizon(), s.K(), s.Count())
	}
}

func TestTSWRSingleElement(t *testing.T) {
	s := NewTSWR[uint64](xrand.New(12), 3, 1)
	s.Observe(0, 100)
	got, ok := s.Sample()
	if !ok || got[0].Index != 0 {
		t.Fatal("single-element window broken")
	}
	if _, ok := s.SampleAt(103); ok {
		t.Fatal("element survived past horizon")
	}
}
