// Package ehist implements the exponential-histogram counter of Datar,
// Gionis, Indyk and Motwani ("Maintaining stream statistics over sliding
// windows", SODA 2002) for timestamp-based windows.
//
// The paper under reproduction cites this very result ([31]) for the fact
// that the SIZE of a timestamp window cannot be computed exactly in
// sublinear space — the negative result that motivates "generating implicit
// events". The exponential histogram is the matching positive result: a
// (1 ± ε)-approximate count of the active elements in O(ε⁻¹·log²n) bits.
//
// In this repository the counter serves the Section 5 application layer:
// estimators such as windowed entropy need the window size n(t) as a scale
// factor, which is exact for sequence windows but only approximable for
// timestamp windows. TSWRSource accepts this counter as its size oracle.
//
// Construction: arrivals are grouped into buckets of power-of-two sizes,
// newest first; at most maxPerSize buckets of each size are kept, and
// overflow merges the two OLDEST buckets of a size into one of twice the
// size. Each bucket records the timestamps of both its oldest and newest
// elements: the newest drives expiry (a bucket dies when its newest element
// leaves the window), the oldest detects whether the surviving head bucket
// straddles the window boundary. When it does not straddle, the count is
// exact; when it does, the head contributes half its size and the absolute
// error is at most half the head bucket, giving relative error at most
// 1/(maxPerSize-1).
//
// Queries are READ-ONLY: EstimateAt computes expiry against the query time
// without persisting it, so a wall-clock query may be followed by an
// arrival with a slightly older (but still non-decreasing) timestamp — the
// serving-style read path. Only Observe advances the counter's clock. A
// Counter may therefore serve concurrent EstimateAt callers under a read
// lock; Observe needs exclusive access, like every other mutation in this
// repository.
//
// # Ingest cost
//
// Bucket sizes never increase from oldest to newest, so each size is one
// contiguous run, and the run of size 2s ends exactly where the last merge
// of size s left its bucket. Observe's cascade (shared by Counter and
// BitCounter) therefore starts at the newest bucket and, per size level,
// looks maxPerSize buckets back: a run that reaches that far is the one
// that overflowed, and its two oldest buckets merge. A level costs O(1)
// comparisons plus the shift that closes the merged gap, which moves the
// newer, smaller runs: O(ε⁻¹) buckets per level below. In steady state a
// size-2^L merge happens once per 2^(L+1) arrivals, so an arrival costs
// amortized O(1) merges and comparisons and O(ε⁻¹) bucket copies — DGIM's
// amortized carry chain — however many of its B = O(ε⁻¹·log n) buckets the
// counter holds. Expiry drops a dead prefix by shifting the survivors, O(B)
// copies, but only on the arrivals that expire a bucket.
//
// Weighted (weighted.go) does not take the same shortcut: its merge
// condition compares a pair's sum against the float sum of every newer
// bucket, accumulated oldest-first, so compress walks all B buckets per
// arrival. A newest-first walk would accumulate the suffix in a different
// float order and could move a bucket boundary, which the committed
// snapshot fixtures would see.
package ehist

import (
	"slidingsample/internal/window"
)

// bucket is one exponential-histogram bucket. The clock is a timestamp for
// Counter and a stream position for BitCounter.
type bucket[P int64 | uint64] struct {
	newest P      // clock of the bucket's most recent element (expiry)
	oldest P      // clock of the bucket's oldest element (straddle test)
	size   uint64 // number of elements, a power of two
}

// cascade restores the at-most-maxPerSize-buckets-per-size invariant after
// an arrival appended a size-1 bucket at the newest end, merging the two
// OLDEST buckets of an overflowing size into one of twice the size and
// rippling upward like a carry chain. Sizes never increase from oldest to
// newest, so the run of the current size ends at `end` — the newest
// bucket for size 1, the slot the previous level's merge wrote for every
// larger size. Before the arrival every size had at most maxPerSize
// buckets, so a run holds at most maxPerSize+1: it overflowed iff the
// bucket maxPerSize places back still has its size, and that bucket is
// the run's oldest. A level whose run fits ends the cascade. (Restored
// snapshots keep the same layout: decodeCounter refuses any other.)
func cascade[P int64 | uint64](bs []bucket[P], maxPerSize int) []bucket[P] {
	end := len(bs) - 1
	for size := uint64(1); end >= maxPerSize && bs[end-maxPerSize].size == size; size *= 2 {
		first := end - maxPerSize
		bs[first] = bucket[P]{newest: bs[first+1].newest, oldest: bs[first].oldest, size: 2 * size}
		bs = append(bs[:first+1], bs[first+2:]...)
		end = first
	}
	return bs
}

// Counter approximately counts the stream elements whose timestamps are
// still inside a sliding window of horizon t0.
type Counter struct {
	w          window.Timestamp
	maxPerSize int
	buckets    []bucket[int64] // oldest first
	now        int64
	started    bool
	maxWords   int
}

// New returns a counter with horizon t0 and relative error at most
// 1/(maxPerSize-1). maxPerSize must be at least 2. For a target ε use
// NewEps.
func New(t0 int64, maxPerSize int) *Counter {
	if t0 <= 0 {
		panic("ehist: New with t0 <= 0")
	}
	if maxPerSize < 2 {
		panic("ehist: New with maxPerSize < 2")
	}
	c := &Counter{w: window.Timestamp{T0: t0}, maxPerSize: maxPerSize}
	c.maxWords = c.Words()
	return c
}

// NewEps returns a counter with relative error at most eps.
func NewEps(t0 int64, eps float64) *Counter {
	if eps <= 0 || eps >= 1 {
		panic("ehist: NewEps with eps outside (0,1)")
	}
	return New(t0, int(1/eps)+2)
}

// Observe records one arrival at time ts (non-decreasing).
func (c *Counter) Observe(ts int64) {
	if c.started && ts < c.now {
		panic("ehist: time went backwards")
	}
	c.now = ts
	c.started = true
	c.expire()
	c.buckets = cascade(append(c.buckets, bucket[int64]{newest: ts, oldest: ts, size: 1}), c.maxPerSize)
	if w := c.Words(); w > c.maxWords {
		c.maxWords = w
	}
}

// expire drops buckets whose most recent element has left the window. The
// survivors are shifted in place — the slice's capacity is bounded by the
// logarithmic bucket peak, which the word model already charges for — and
// the vacated tail is zeroed so stale bucket copies never linger.
func (c *Counter) expire() {
	i := 0
	for i < len(c.buckets) && c.w.Expired(c.buckets[i].newest, c.now) {
		i++
	}
	if i > 0 {
		m := copy(c.buckets, c.buckets[i:])
		clear(c.buckets[m:])
		c.buckets = c.buckets[:m]
	}
}

// EstimateAt returns the approximate number of active elements at time now.
// The query is read-only: expiry is computed against the query time without
// persisting it, so the counter's clock — which only Observe advances — is
// never moved by a query, and an arrival with ts < now remains legal
// afterwards. A query older than the latest arrival is answered at the
// arrival clock (time never rewinds). The result is exact whenever the
// oldest surviving bucket lies entirely inside the window (in particular
// while the stream is younger than the window).
func (c *Counter) EstimateAt(now int64) uint64 {
	if !c.started {
		return 0
	}
	if now < c.now {
		now = c.now
	}
	// Buckets are oldest first with non-decreasing newest, so the dead
	// prefix at query time is found by the same scan expire uses — just
	// without committing it.
	i := 0
	for i < len(c.buckets) && c.w.Expired(c.buckets[i].newest, now) {
		i++
	}
	if i == len(c.buckets) {
		return 0
	}
	total := uint64(0)
	for _, b := range c.buckets[i:] {
		total += b.size
	}
	if c.w.Active(c.buckets[i].oldest, now) {
		return total // head bucket fully inside the window: exact
	}
	return total - c.buckets[i].size/2
}

// Estimate returns the approximate count at the latest observed time.
func (c *Counter) Estimate() uint64 { return c.EstimateAt(c.now) }

// Buckets returns the current number of buckets (diagnostics).
func (c *Counter) Buckets() int { return len(c.buckets) }

// Clock returns the timestamp of the latest arrival and whether there has
// been one. Decoders of enclosing samplers check it against their own
// clock.
func (c *Counter) Clock() (int64, bool) { return c.now, c.started }

// SizeOracle adapts the counter to the apps.TSWRSource size-oracle
// signature.
func (c *Counter) SizeOracle() func(now int64) (float64, bool) {
	return func(now int64) (float64, bool) {
		n := c.EstimateAt(now)
		if n == 0 {
			return 0, false
		}
		return float64(n), true
	}
}

// Words implements the DESIGN.md §6 cost model: each bucket stores two
// timestamps and a size (3 words), plus two scalars.
func (c *Counter) Words() int { return 2 + 3*len(c.buckets) }

// MaxWords returns the peak footprint.
func (c *Counter) MaxWords() int { return c.maxWords }
