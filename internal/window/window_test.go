package window

import (
	"math"
	"testing"
	"testing/quick"

	"slidingsample/internal/stream"
)

func TestSequenceActive(t *testing.T) {
	w := Sequence{N: 5}
	cases := []struct {
		idx, latest uint64
		want        bool
	}{
		{0, 0, true},
		{0, 4, true},
		{0, 5, false},
		{1, 5, true},
		{5, 5, true},
		{6, 5, false}, // future index is not active
		{95, 99, true},
		{94, 99, false},
	}
	for _, c := range cases {
		if got := w.Active(c.idx, c.latest); got != c.want {
			t.Errorf("Active(%d, %d) = %v, want %v", c.idx, c.latest, got, c.want)
		}
	}
}

func TestSequenceStart(t *testing.T) {
	w := Sequence{N: 5}
	cases := []struct{ latest, want uint64 }{
		{0, 0}, {3, 0}, {4, 0}, {5, 1}, {100, 96},
	}
	for _, c := range cases {
		if got := w.Start(c.latest); got != c.want {
			t.Errorf("Start(%d) = %d, want %d", c.latest, got, c.want)
		}
	}
}

func TestSequenceStartConsistentWithActive(t *testing.T) {
	f := func(nRaw uint16, latestRaw uint32) bool {
		n := uint64(nRaw%1000) + 1
		latest := uint64(latestRaw % 100000)
		w := Sequence{N: n}
		s := w.Start(latest)
		if !w.Active(s, latest) {
			return false
		}
		if s > 0 && w.Active(s-1, latest) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampActive(t *testing.T) {
	w := Timestamp{T0: 10}
	cases := []struct {
		ts, now int64
		want    bool
	}{
		{0, 0, true},
		{0, 9, true},
		{0, 10, false},
		{5, 14, true},
		{5, 15, false},
	}
	for _, c := range cases {
		if got := w.Active(c.ts, c.now); got != c.want {
			t.Errorf("Active(%d, %d) = %v, want %v", c.ts, c.now, got, c.want)
		}
		if w.Expired(c.ts, c.now) == c.want {
			t.Errorf("Expired(%d, %d) inconsistent with Active", c.ts, c.now)
		}
	}
}

func elem(idx uint64, ts int64) stream.Element[uint64] {
	return stream.Element[uint64]{Value: idx, Index: idx, TS: ts}
}

func TestSeqBufferBasics(t *testing.T) {
	b := NewSeqBuffer[uint64](3)
	if b.Len() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	for i := uint64(0); i < 5; i++ {
		b.Observe(elem(i, 0))
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	got := b.Contents()
	for i, e := range got {
		if e.Index != uint64(i+2) {
			t.Fatalf("contents[%d].Index = %d, want %d", i, e.Index, i+2)
		}
		if b.At(i).Index != e.Index {
			t.Fatalf("At(%d) disagrees with Contents", i)
		}
	}
}

func TestSeqBufferPartial(t *testing.T) {
	b := NewSeqBuffer[uint64](10)
	b.Observe(elem(0, 0))
	b.Observe(elem(1, 0))
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if c := b.Contents(); len(c) != 2 || c[0].Index != 0 || c[1].Index != 1 {
		t.Fatalf("Contents = %v", c)
	}
}

func TestSeqBufferAtPanics(t *testing.T) {
	b := NewSeqBuffer[uint64](2)
	b.Observe(elem(0, 0))
	for _, i := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) did not panic", i)
				}
			}()
			b.At(i)
		}()
	}
}

func TestTSBufferExpiry(t *testing.T) {
	b := NewTSBuffer[uint64](10)
	b.Observe(elem(0, 0))
	b.Observe(elem(1, 5))
	b.Observe(elem(2, 9))
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	b.Observe(elem(3, 10)) // ts=0 expires: 10-0 >= 10
	if b.Len() != 3 {
		t.Fatalf("after ts=10 Len = %d, want 3 (element 0 expired)", b.Len())
	}
	if b.Contents()[0].Index != 1 {
		t.Fatalf("oldest active should be index 1, got %d", b.Contents()[0].Index)
	}
	b.AdvanceTo(25) // everything expires
	if b.Len() != 0 {
		t.Fatalf("after AdvanceTo(25) Len = %d, want 0", b.Len())
	}
}

func TestTSBufferBurst(t *testing.T) {
	b := NewTSBuffer[uint64](2)
	for i := uint64(0); i < 100; i++ {
		b.Observe(elem(i, 7))
	}
	if b.Len() != 100 {
		t.Fatalf("burst not fully active: Len = %d", b.Len())
	}
	b.AdvanceTo(8)
	if b.Len() != 100 {
		t.Fatalf("burst should still be active at 8: Len = %d", b.Len())
	}
	b.AdvanceTo(9)
	if b.Len() != 0 {
		t.Fatalf("burst should be expired at 9: Len = %d", b.Len())
	}
}

func TestTSBufferAdvanceBackwardsIgnored(t *testing.T) {
	b := NewTSBuffer[uint64](5)
	b.Observe(elem(0, 10))
	b.AdvanceTo(3) // ignored
	if now, ok := b.Clock(); now != 10 || !ok {
		t.Fatalf("Clock = %d, %v, want 10, true", now, ok)
	}
	if b.Len() != 1 {
		t.Fatal("backward advance must not expire elements")
	}
}

func TestTSBufferMonotonePanic(t *testing.T) {
	b := NewTSBuffer[uint64](5)
	b.Observe(elem(0, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamp did not panic")
		}
	}()
	b.Observe(elem(1, 9))
}

func TestConstructorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewSeqBuffer(0) did not panic")
			}
		}()
		NewSeqBuffer[uint64](0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewTSBuffer(0) did not panic")
			}
		}()
		NewTSBuffer[uint64](0)
	}()
}

func TestTimestampActiveOverflowSafe(t *testing.T) {
	// Streams may start at any timestamp, including near math.MinInt64
	// (slidingsample's public contract). The naive now-ts comparison
	// overflows int64 for hugely negative ts and silently reports an
	// ancient element as active; the horizon test must not.
	w := Timestamp{T0: 60}
	cases := []struct {
		ts, now int64
		active  bool
	}{
		{math.MinInt64, 10, false},           // pre-fix: now-ts wraps negative => "active"
		{math.MinInt64 + 1, 0, false},        // same overflow region
		{math.MinInt64, math.MinInt64, true}, // fresh element at the floor
		{math.MinInt64, math.MinInt64 + 59, true},
		{math.MinInt64, math.MinInt64 + 60, false},
		{-30, 29, true}, // plain negative-to-positive span
		{-30, 30, false},
		{0, math.MaxInt64, false}, // huge forward span, no wrap
		{math.MaxInt64 - 1, math.MaxInt64, true},
		{5, 3, true}, // future timestamp: trivially active
	}
	for _, c := range cases {
		if got := w.Active(c.ts, c.now); got != c.active {
			t.Errorf("Active(ts=%d, now=%d) = %v, want %v", c.ts, c.now, got, c.active)
		}
		if got := w.Expired(c.ts, c.now); got == c.active {
			t.Errorf("Expired(ts=%d, now=%d) = %v, want %v", c.ts, c.now, got, !c.active)
		}
	}
	// The full representable span must also be exact for large horizons.
	wide := Timestamp{T0: math.MaxInt64}
	if wide.Active(math.MinInt64, math.MaxInt64) {
		t.Error("span of 2^64-1 ticks reported inside a 2^63-1 horizon")
	}
	if !wide.Active(-1, math.MaxInt64-2) {
		t.Error("span of MaxInt64-1 ticks reported outside a MaxInt64 horizon")
	}
}

// TestTSBufferExpiryReleasesPayloads is the leak regression for the exact
// materializer: expire's in-place shift must zero the vacated tail, or the
// expired elements' payloads (pointers, big slices) stay live in the
// buffer's spare capacity for its whole lifetime.
func TestTSBufferExpiryReleasesPayloads(t *testing.T) {
	const t0 = 8
	b := NewTSBuffer[*[]byte](t0)
	for i := 0; i < 256; i++ {
		p := make([]byte, 1<<10)
		b.Observe(stream.Element[*[]byte]{Value: &p, Index: uint64(i), TS: int64(i)})
	}
	b.AdvanceTo(1 << 20) // everything expires
	if b.Len() != 0 {
		t.Fatalf("%d elements active after full expiry", b.Len())
	}
	full := b.buf[:cap(b.buf)]
	for i, e := range full {
		if e.Value != nil {
			t.Fatalf("slack slot %d still pins an expired payload (cap %d)", i, cap(b.buf))
		}
	}
	// And mid-stream: live elements stay, only the slack is scrubbed.
	p := make([]byte, 16)
	b.Observe(stream.Element[*[]byte]{Value: &p, Index: 256, TS: 1 << 20})
	live := map[*[]byte]bool{}
	for _, e := range b.Contents() {
		live[e.Value] = true
	}
	full = b.buf[:cap(b.buf)]
	for i := b.Len(); i < len(full); i++ {
		if v := full[i].Value; v != nil && !live[v] {
			t.Fatalf("slack slot %d pins a non-live payload", i)
		}
	}
}
