package ehist

import (
	"fmt"
	"slices"
	"testing"

	"slidingsample/internal/xrand"
)

// cascadeFullScan is the cascade the newest-first walk replaced, kept as
// the differential oracle: per size level it rescans the whole bucket list
// to count that size, and merges the first two buckets of the size it
// meets. It assumes nothing about the layout, so it pins what the
// newest-first walk must reproduce on every state Observe reaches.
func cascadeFullScan[P int64 | uint64](bs []bucket[P], maxPerSize int) []bucket[P] {
	size := uint64(1)
	for {
		first, count := -1, 0
		for i, b := range bs {
			if b.size == size {
				if first < 0 {
					first = i
				}
				count++
			}
		}
		if count <= maxPerSize {
			return bs
		}
		second := first + 1
		for second < len(bs) && bs[second].size != size {
			second++
		}
		if second >= len(bs) {
			return bs
		}
		merged := bucket[P]{newest: bs[second].newest, oldest: bs[first].oldest, size: size * 2}
		bs = append(bs[:second], bs[second+1:]...)
		bs[first] = merged
		size *= 2
	}
}

// oracleObserve is Counter.Observe with the full-scan cascade.
func oracleObserve(c *Counter, ts int64) {
	c.now = ts
	c.started = true
	c.expire()
	c.buckets = cascadeFullScan(append(c.buckets, bucket[int64]{newest: ts, oldest: ts, size: 1}), c.maxPerSize)
	if w := c.Words(); w > c.maxWords {
		c.maxWords = w
	}
}

// oracleObserveBit is BitCounter.Observe with the full-scan cascade.
func oracleObserveBit(c *BitCounter, bit bool) {
	p := c.pos
	c.pos++
	c.expire()
	if !bit {
		return
	}
	c.buckets = cascadeFullScan(append(c.buckets, bucket[uint64]{newest: p, oldest: p, size: 1}), c.maxPerSize)
	if w := c.Words(); w > c.maxWords {
		c.maxWords = w
	}
}

// sameBuckets compares two bucket lists over their whole backing arrays:
// the live buckets, and the slack past len that a merge's shift leaves
// behind, which must match too (both grow by the same appends).
func sameBuckets[P int64 | uint64](t *testing.T, label string, got, want []bucket[P]) {
	t.Helper()
	if len(got) != len(want) || cap(got) != cap(want) {
		t.Fatalf("%s: %d/%d buckets (len/cap), want %d/%d\ngot  %v\nwant %v",
			label, len(got), cap(got), len(want), cap(want), got, want)
	}
	if !slices.Equal(got[:cap(got)], want[:cap(want)]) {
		t.Fatalf("%s: buckets differ\ngot  %v\nwant %v", label, got[:cap(got)], want[:cap(want)])
	}
}

// burstyClock advances a timestamp stream: mostly bursts at one tick and
// small steps, sometimes a gap longer than the horizon that expires every
// bucket.
func burstyClock(rng *xrand.Rand, ts, t0 int64) int64 {
	switch r := rng.Intn(100); {
	case r < 45:
		return ts // burst: same tick
	case r < 97:
		return ts + 1 + int64(rng.Intn(3))
	default:
		return ts + t0 + int64(rng.Intn(int(t0)))
	}
}

func TestCascadeMatchesFullScanCounter(t *testing.T) {
	for maxPerSize := 2; maxPerSize <= 40; maxPerSize++ {
		for _, t0 := range []int64{1, 7, 64, 1000} {
			label := fmt.Sprintf("maxPerSize=%d t0=%d", maxPerSize, t0)
			rng := xrand.New(uint64(maxPerSize)*1000 + uint64(t0))
			got, want := New(t0, maxPerSize), New(t0, maxPerSize)
			ts := int64(rng.Intn(5)) - 2
			for i := 0; i < 3000; i++ {
				ts = burstyClock(rng, ts, t0)
				got.Observe(ts)
				oracleObserve(want, ts)
				step := fmt.Sprintf("%s arrival %d (ts %d)", label, i, ts)
				sameBuckets(t, step, got.buckets, want.buckets)
				if got.now != want.now || got.started != want.started || got.maxWords != want.maxWords {
					t.Fatalf("%s: clock/peak (%d, %v, %d), want (%d, %v, %d)", step,
						got.now, got.started, got.maxWords, want.now, want.started, want.maxWords)
				}
			}
		}
	}
}

func TestCascadeMatchesFullScanBitCounter(t *testing.T) {
	for maxPerSize := 2; maxPerSize <= 40; maxPerSize++ {
		for _, n := range []uint64{1, 9, 100, 2000} {
			label := fmt.Sprintf("maxPerSize=%d n=%d", maxPerSize, n)
			rng := xrand.New(uint64(maxPerSize)*7919 + n)
			got, want := NewBitCounter(n, maxPerSize), NewBitCounter(n, maxPerSize)
			for i := 0; i < 3000; {
				// Runs of ones (bursts), short mixed stretches, and now and
				// then a run of zeros long enough to expire the window.
				var run int
				var density int // percent ones
				switch r := rng.Intn(100); {
				case r < 40:
					run, density = 1+rng.Intn(64), 100
				case r < 95:
					run, density = 1+rng.Intn(32), 50
				default:
					run, density = int(n)+rng.Intn(int(n)+1), 0
				}
				for j := 0; j < run && i < 3000; j, i = j+1, i+1 {
					bit := rng.Intn(100) < density
					got.Observe(bit)
					oracleObserveBit(want, bit)
					step := fmt.Sprintf("%s position %d", label, i)
					sameBuckets(t, step, got.buckets, want.buckets)
					if got.pos != want.pos || got.maxWords != want.maxWords {
						t.Fatalf("%s: pos/peak (%d, %d), want (%d, %d)", step,
							got.pos, got.maxWords, want.pos, want.maxWords)
					}
				}
			}
		}
	}
}
