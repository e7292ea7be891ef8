// Package window defines the two sliding-window semantics from the paper and
// exact window materializers used as ground truth by tests, estimator-error
// experiments, and the Zhang-et-al.-style full-window baseline.
//
// Sequence-based windows (Section 2): exactly the n most recent elements are
// active. Timestamp-based windows (Section 3): an element p is active at time
// t iff t - T(p) < t0 for the window parameter t0; the number of active
// elements n(t) is data-dependent and cannot be computed in sublinear space.
package window

import "slidingsample/internal/stream"

// Sequence describes a sequence-based (fixed-size) window of size N.
type Sequence struct {
	// N is the window size: the N most recent elements are active.
	N uint64
}

// Active reports whether the element at arrival index idx is active when the
// latest arrival index is latest (both 0-based). The window is
// [latest-N+1, latest] clamped at 0.
func (w Sequence) Active(idx, latest uint64) bool {
	if idx > latest {
		return false
	}
	return latest-idx < w.N
}

// Start returns the smallest active index when the latest arrival index is
// latest.
func (w Sequence) Start(latest uint64) uint64 {
	if latest+1 < w.N {
		return 0
	}
	return latest + 1 - w.N
}

// Timestamp describes a timestamp-based window of horizon T0 ticks.
type Timestamp struct {
	// T0 is the horizon: an element with timestamp ts is active at time now
	// iff now - ts < T0.
	T0 int64
}

// Active reports whether an element with timestamp ts is active at time now.
//
// The comparison is overflow-safe: streams may start at any timestamp,
// including ones near math.MinInt64, where the naive now-ts wraps around and
// silently flips active/expired. For ts <= now the true difference now-ts
// lies in [0, 2^64) and is computed exactly in uint64 arithmetic (two's
// complement subtraction yields the value mod 2^64, which is the value
// itself in that range); a timestamp from the future is trivially active.
func (w Timestamp) Active(ts, now int64) bool {
	if ts > now {
		return true
	}
	return uint64(now)-uint64(ts) < uint64(w.T0)
}

// Expired reports the complement of Active (reads better at call sites that
// mirror the paper's phrasing).
func (w Timestamp) Expired(ts, now int64) bool {
	return !w.Active(ts, now)
}

// ---------------------------------------------------------------------------
// Exact materializers (ground truth; memory O(window), test/bench use only)
// ---------------------------------------------------------------------------

// SeqBuffer keeps the full contents of a sequence-based window: a ring buffer
// of the last N elements. Used to compute exact answers against which the
// samplers' outputs are validated — this is the very thing the paper's
// algorithms avoid storing, so nothing in internal/core depends on it.
type SeqBuffer[T any] struct {
	n    uint64
	buf  []stream.Element[T]
	next int
	size int
}

// NewSeqBuffer returns an exact materializer for a window of size n.
func NewSeqBuffer[T any](n uint64) *SeqBuffer[T] {
	if n == 0 {
		panic("window: NewSeqBuffer with n == 0")
	}
	return &SeqBuffer[T]{n: n, buf: make([]stream.Element[T], n)}
}

// Observe appends one element, evicting the oldest when full.
func (b *SeqBuffer[T]) Observe(e stream.Element[T]) {
	b.buf[b.next] = e
	b.next = (b.next + 1) % int(b.n)
	if b.size < int(b.n) {
		b.size++
	}
}

// Len returns the number of active elements (min(arrivals, n)).
func (b *SeqBuffer[T]) Len() int { return b.size }

// Contents returns the active elements in arrival order (oldest first).
func (b *SeqBuffer[T]) Contents() []stream.Element[T] {
	out := make([]stream.Element[T], 0, b.size)
	start := (b.next - b.size + int(b.n)) % int(b.n)
	for i := 0; i < b.size; i++ {
		out = append(out, b.buf[(start+i)%int(b.n)])
	}
	return out
}

// At returns the i-th active element, oldest first. Panics if out of range.
func (b *SeqBuffer[T]) At(i int) stream.Element[T] {
	if i < 0 || i >= b.size {
		panic("window: SeqBuffer.At out of range")
	}
	start := (b.next - b.size + int(b.n)) % int(b.n)
	return b.buf[(start+i)%int(b.n)]
}

// TSBuffer keeps the full contents of a timestamp-based window: a deque from
// which expired elements are dropped. Ground truth only.
type TSBuffer[T any] struct {
	w   Timestamp
	buf []stream.Element[T]
	now int64
	any bool
}

// NewTSBuffer returns an exact materializer for a horizon-t0 window.
func NewTSBuffer[T any](t0 int64) *TSBuffer[T] {
	if t0 <= 0 {
		panic("window: NewTSBuffer with t0 <= 0")
	}
	return &TSBuffer[T]{w: Timestamp{T0: t0}}
}

// Observe appends one element and advances the clock to its timestamp.
func (b *TSBuffer[T]) Observe(e stream.Element[T]) {
	if b.any && e.TS < b.now {
		panic("window: TSBuffer timestamps must be non-decreasing")
	}
	b.any = true
	b.now = e.TS
	b.buf = append(b.buf, e)
	b.expire()
}

// AdvanceTo moves the clock forward without an arrival (queries may happen
// after the last arrival).
func (b *TSBuffer[T]) AdvanceTo(now int64) {
	if now < b.now {
		return
	}
	b.now = now
	b.expire()
}

func (b *TSBuffer[T]) expire() {
	i := 0
	for i < len(b.buf) && b.w.Expired(b.buf[i].TS, b.now) {
		i++
	}
	if i > 0 {
		// Shift in place and zero the vacated tail: the tail capacity would
		// otherwise keep the expired elements' payloads (strings, slices,
		// pointers) live for the buffer's whole lifetime.
		m := copy(b.buf, b.buf[i:])
		clear(b.buf[m:])
		b.buf = b.buf[:m]
	}
}

// Len returns n(t), the number of active elements.
func (b *TSBuffer[T]) Len() int { return len(b.buf) }

// Contents returns the active elements in arrival order (oldest first).
// The returned slice aliases internal storage; callers must not mutate it.
func (b *TSBuffer[T]) Contents() []stream.Element[T] { return b.buf }

// Clock returns the current clock and whether an element has arrived; an
// earlier arrival panics.
func (b *TSBuffer[T]) Clock() (int64, bool) { return b.now, b.any }
