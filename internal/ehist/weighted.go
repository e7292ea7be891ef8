// weighted.go implements the exponential histogram over WEIGHTS: a (1±ε)
// oracle for the total weight of the active window elements, the sum
// analogue of Counter. It is what weighted cross-shard composition needs
// (ROADMAP "Weighted sharding"): the dispatcher draws a shard for each
// with-replacement pick proportionally to the shard's active WEIGHT, which —
// like the active count — cannot be tracked exactly in sublinear space.
//
// The bucket layout is Counter's (a run of consecutive arrivals with the
// timestamps of its oldest and newest elements), but values ADD: a bucket
// records the summed weight of its run. The merge rule has to change with
// it. Counter cascades on bucket COUNT (merge the two oldest of a
// power-of-two size), which bounds the straddling head bucket's COUNT by
// ε·n — but a single heavy element can make the head bucket's WEIGHT an
// arbitrary fraction of the window total, so the count cascade transfers no
// sum guarantee. Instead the merge condition is stated directly on sums:
//
//	merge adjacent buckets j, j+1  iff  S_j + S_{j+1} ≤ ε · Σ_{i>j+1} S_i.
//
// A merged bucket therefore satisfies S_j ≤ ε·(weight of strictly newer
// buckets) at merge time, and the bound only strengthens afterwards:
// weights are positive, newer buckets are appended forever, and expiry
// drops an oldest-first prefix (a newer bucket can never die while an older
// one is alive), so the newer-suffix sum never shrinks while bucket j
// lives. At query time the dead prefix is dropped; if the surviving head
// bucket lies entirely inside the window the sum is EXACT (in particular a
// never-merged singleton head is always exact — its oldest element is its
// newest), and if it straddles the boundary it contributes half its sum,
// for an absolute error of at most S_head/2 ≤ (ε/2)·(newer suffix) ≤
// (ε/2)·(true active weight). Relative error at most ε/2 — the same shape
// as Counter's half-head-bucket argument, carried by the sum invariant
// instead of the size cascade.
//
// Space: with no adjacent pair mergeable, suffix sums grow by a factor
// (1+ε) every two buckets, so the histogram holds O(ε⁻¹·log(W/w_min))
// buckets for total ingested active weight W and minimum element weight
// w_min — the weight-domain analogue of Counter's O(ε⁻¹·log n).
//
// Queries are READ-ONLY exactly like Counter's: SumAt computes expiry
// against the query time without persisting it, so a Weighted may serve
// concurrent SumAt callers under an RWMutex read lock while only Observe
// requires exclusive access.

package ehist

import (
	"math"

	"slidingsample/internal/window"
)

// wbucket is one weight-histogram bucket: a run of consecutive arrivals
// with their summed weight.
type wbucket struct {
	newTS int64   // timestamp of the run's most recent element (expiry)
	oldTS int64   // timestamp of the run's oldest element (straddle test)
	sum   float64 // total weight of the run
}

// Weighted approximately tracks the total weight of the stream elements
// whose timestamps are still inside a sliding window of horizon t0.
type Weighted struct {
	w       window.Timestamp
	eps     float64
	buckets []wbucket // oldest first
	// total is the running sum over the retained buckets, maintained by
	// Observe and expire so compress never re-walks the histogram to price
	// its merge condition — this is the single-producer ingest hot path of
	// every sharded weighted sampler. Merges move weight between buckets
	// without changing it, so only arrivals add and expiry subtracts; the
	// incremental float drift is ~1 ulp per operation, vanishing next to
	// the ε the merge condition already tolerates.
	total    float64
	now      int64
	started  bool
	maxWords int
}

// NewWeighted returns a weight histogram with horizon t0 and relative error
// at most eps. Panics on bad parameters.
func NewWeighted(t0 int64, eps float64) *Weighted {
	if t0 <= 0 {
		panic("ehist: NewWeighted with t0 <= 0")
	}
	if eps <= 0 || eps >= 1 {
		panic("ehist: NewWeighted with eps outside (0,1)")
	}
	c := &Weighted{w: window.Timestamp{T0: t0}, eps: eps}
	c.maxWords = c.Words()
	return c
}

// Observe records one arrival of weight wt at time ts (non-decreasing).
// The weight must be positive and finite.
func (c *Weighted) Observe(ts int64, wt float64) {
	if c.started && ts < c.now {
		panic("ehist: time went backwards")
	}
	if !(wt > 0) || math.IsInf(wt, 1) {
		panic("ehist: weight must be positive and finite")
	}
	c.now = ts
	c.started = true
	c.expire()
	c.buckets = append(c.buckets, wbucket{newTS: ts, oldTS: ts, sum: wt})
	c.total += wt
	c.compress()
	if w := c.Words(); w > c.maxWords {
		c.maxWords = w
	}
}

// compress restores the merge invariant: walking oldest-first, adjacent
// buckets whose combined sum is at most eps times the weight of all
// strictly newer buckets are merged (staying in place to retry the merged
// bucket against its new neighbor). The two newest buckets never merge —
// their newer suffix is empty — so fresh arrivals are always exact.
func (c *Weighted) compress() {
	prefix := 0.0
	j := 0
	for j+1 < len(c.buckets) {
		pair := c.buckets[j].sum + c.buckets[j+1].sum
		if pair <= c.eps*(c.total-prefix-pair) {
			c.buckets[j] = wbucket{
				newTS: c.buckets[j+1].newTS,
				oldTS: c.buckets[j].oldTS,
				sum:   pair,
			}
			c.buckets = append(c.buckets[:j+1], c.buckets[j+2:]...)
			continue
		}
		prefix += c.buckets[j].sum
		j++
	}
}

// expire drops buckets whose most recent element has left the window,
// shifting the survivors in place (the same discipline as Counter.expire;
// wbuckets hold no pointers, so the vacated tail needs no zeroing for leak
// purposes but gets it anyway for symmetry).
func (c *Weighted) expire() {
	i := 0
	for i < len(c.buckets) && c.w.Expired(c.buckets[i].newTS, c.now) {
		c.total -= c.buckets[i].sum
		i++
	}
	if i > 0 {
		m := copy(c.buckets, c.buckets[i:])
		clear(c.buckets[m:])
		c.buckets = c.buckets[:m]
		if m == 0 {
			c.total = 0 // resynchronize the running sum on a drained window
		}
	}
}

// SumAt returns the approximate total weight of the active elements at time
// now. The query is READ-ONLY: expiry is computed against the query time
// without persisting it, so the histogram's clock — which only Observe
// advances — is never moved by a query, and an arrival with ts < now
// remains legal afterwards. A query older than the latest arrival is
// answered at the arrival clock (time never rewinds). The result is exact
// whenever the oldest surviving bucket lies entirely inside the window, and
// within (1±eps) always.
func (c *Weighted) SumAt(now int64) float64 {
	if !c.started {
		return 0
	}
	if now < c.now {
		now = c.now
	}
	i := 0
	for i < len(c.buckets) && c.w.Expired(c.buckets[i].newTS, now) {
		i++
	}
	if i == len(c.buckets) {
		return 0
	}
	total := 0.0
	for _, b := range c.buckets[i:] {
		total += b.sum
	}
	if c.w.Active(c.buckets[i].oldTS, now) {
		return total // head bucket fully inside the window: exact
	}
	return total - c.buckets[i].sum/2
}

// Sum returns the approximate active weight at the latest observed time.
func (c *Weighted) Sum() float64 { return c.SumAt(c.now) }

// Buckets returns the current number of buckets (diagnostics).
func (c *Weighted) Buckets() int { return len(c.buckets) }

// Clock returns the clock of the latest arrival and whether there has been
// one (see Counter.Clock).
func (c *Weighted) Clock() (int64, bool) { return c.now, c.started }

// Words implements the DESIGN.md §6 cost model: each bucket stores two
// timestamps and a sum (3 words), plus three scalars (clock, eps, the
// running total) — Counter's shape plus the running sum.
func (c *Weighted) Words() int { return 3 + 3*len(c.buckets) }

// MaxWords returns the peak footprint.
func (c *Weighted) MaxWords() int { return c.maxWords }
