package ehist

import (
	"bytes"
	"math"
	"testing"

	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// counterBody encodes a Counter snapshot with the given state, bypassing
// Observe, so the table below can write states no stream produces.
func counterBody(t *testing.T, maxPerSize int, now int64, started bool, bs ...bucket[int64]) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &Counter{w: window.Timestamp{T0: 100}, maxPerSize: maxPerSize, now: now, started: started, buckets: bs}
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func weightedBody(t *testing.T, now int64, started bool, bs ...wbucket) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &Weighted{w: window.Timestamp{T0: 100}, eps: 0.1, now: now, started: started, buckets: bs}
	for _, b := range bs {
		c.total += b.sum
	}
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cb(newest, oldest int64, size uint64) bucket[int64] {
	return bucket[int64]{newest: newest, oldest: oldest, size: size}
}

func wb(newTS, oldTS int64, sum float64) wbucket {
	return wbucket{newTS: newTS, oldTS: oldTS, sum: sum}
}

// TestRestoreRefusesUnreachable feeds Restore and RestoreWeighted bodies
// whose buckets no arrival order produces. Each must fail: the cascade's
// newest-first walk and every later arrival rely on the layout and clocks
// Observe keeps.
func TestRestoreRefusesUnreachable(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		ok   bool
	}{
		{"counter/valid layout", counterBody(t, 2, 9, true, cb(3, 1, 4), cb(5, 4, 2), cb(7, 6, 2), cb(8, 8, 1), cb(9, 9, 1)), true},
		{"counter/empty", counterBody(t, 2, 0, false), true},
		{"counter/size 3", counterBody(t, 2, 9, true, cb(5, 1, 3), cb(9, 9, 1)), false},
		{"counter/size 0", counterBody(t, 2, 9, true, cb(5, 1, 2), cb(9, 9, 0)), false},
		{"counter/sizes grow toward newest", counterBody(t, 2, 9, true, cb(5, 1, 1), cb(9, 6, 2)), false},
		{"counter/run over maxPerSize", counterBody(t, 2, 9, true, cb(7, 7, 1), cb(8, 8, 1), cb(9, 9, 1)), false},
		{"counter/newest clocks decrease", counterBody(t, 2, 9, true, cb(6, 1, 2), cb(5, 5, 1)), false},
		{"counter/bucket starts before predecessor ends", counterBody(t, 2, 9, true, cb(6, 1, 2), cb(9, 5, 2)), false},
		{"counter/oldest after newest", counterBody(t, 2, 9, true, cb(3, 5, 2), cb(9, 9, 1)), false},
		{"counter/bucket after clock", counterBody(t, 2, 9, true, cb(5, 1, 2), cb(10, 10, 1)), false},
		{"counter/buckets without arrival", counterBody(t, 2, 9, false, cb(9, 9, 1)), false},

		{"weighted/valid layout", weightedBody(t, 9, true, wb(5, 1, 3.5), wb(8, 8, 1), wb(9, 9, 2)), true},
		{"weighted/empty", weightedBody(t, 0, false), true},
		{"weighted/zero sum", weightedBody(t, 9, true, wb(5, 1, 0), wb(9, 9, 1)), false},
		{"weighted/negative sum", weightedBody(t, 9, true, wb(5, 1, -2), wb(9, 9, 1)), false},
		{"weighted/infinite sum", weightedBody(t, 9, true, wb(5, 1, math.Inf(1)), wb(9, 9, 1)), false},
		{"weighted/NaN sum", weightedBody(t, 9, true, wb(5, 1, math.NaN()), wb(9, 9, 1)), false},
		{"weighted/newest clocks decrease", weightedBody(t, 9, true, wb(6, 1, 1), wb(5, 5, 1)), false},
		{"weighted/oldest after newest", weightedBody(t, 9, true, wb(3, 5, 1), wb(9, 9, 1)), false},
		{"weighted/bucket after clock", weightedBody(t, 9, true, wb(5, 1, 1), wb(10, 10, 1)), false},
		{"weighted/buckets without arrival", weightedBody(t, 9, false, wb(9, 9, 1)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if bytes.Contains(tc.body, []byte(kindWeighted)) {
				_, err = RestoreWeighted(bytes.NewReader(tc.body))
			} else {
				_, err = Restore(bytes.NewReader(tc.body))
			}
			if tc.ok && err != nil {
				t.Fatalf("valid state refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("unreachable state restored")
			}
		})
	}
}

// TestRestoreAcceptsReachable snapshots counters and weight histograms
// along bursty streams, gaps that empty the window included, and restores
// each snapshot: every state Observe reaches must pass the decoder checks
// and take the next arrival at its clock.
func TestRestoreAcceptsReachable(t *testing.T) {
	for _, maxPerSize := range []int{2, 3, 5, 22, 40} {
		rng := xrand.New(uint64(maxPerSize))
		c := New(20, maxPerSize)
		wc := NewWeighted(20, 1/float64(maxPerSize))
		ts := int64(0)
		for i := 0; i < 1500; i++ {
			ts = burstyClock(rng, ts, 20)
			c.Observe(ts)
			wc.Observe(ts, float64(1+rng.Intn(50)))
			if i%7 != 0 {
				continue
			}
			var buf, wbuf bytes.Buffer
			if err := c.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := wc.Snapshot(&wbuf); err != nil {
				t.Fatal(err)
			}
			got, err := Restore(&buf)
			if err != nil {
				t.Fatalf("maxPerSize=%d arrival %d: %v", maxPerSize, i, err)
			}
			wgot, err := RestoreWeighted(&wbuf)
			if err != nil {
				t.Fatalf("maxPerSize=%d arrival %d: weighted: %v", maxPerSize, i, err)
			}
			got.Observe(ts)
			wgot.Observe(ts, 1)
		}
	}
}
