package baseline

import (
	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// prioNode is a retained element together with its random priority.
// Priorities are uniform 64-bit integers rather than the paper's reals in
// (0,1): ties have probability ~2^-64 per pair and a word each under the
// DESIGN.md §6 cost model.
type prioNode[T any] struct {
	st   *stream.Stored[T]
	prio uint64
}

// prio is one Babcock–Datar–Motwani priority sampler over a timestamp-based
// window: every arrival draws a priority; the sample is the highest-priority
// active element. The retained set is exactly the elements with no later,
// higher-priority element — a descending-priority list in arrival order,
// maintained by popping dominated tails on arrival and expired heads on
// advance. Its size is O(log n) in expectation but randomized.
type prio[T any] struct {
	w     window.Timestamp
	rng   *xrand.Rand
	nodes []prioNode[T] // arrival order == descending priority
}

func newPrio[T any](rng *xrand.Rand, t0 int64) *prio[T] {
	return &prio[T]{w: window.Timestamp{T0: t0}, rng: rng}
}

func (p *prio[T]) observe(e stream.Element[T]) {
	pr := p.rng.Uint64()
	for len(p.nodes) > 0 && p.nodes[len(p.nodes)-1].prio < pr {
		p.nodes = p.nodes[:len(p.nodes)-1]
	}
	p.nodes = append(p.nodes, prioNode[T]{st: &stream.Stored[T]{Elem: e}, prio: pr})
	p.expire(e.TS)
}

func (p *prio[T]) expire(now int64) {
	i := 0
	for i < len(p.nodes) && p.w.Expired(p.nodes[i].st.Elem.TS, now) {
		i++
	}
	if i > 0 {
		p.nodes = append(p.nodes[:0:0], p.nodes[i:]...)
	}
}

func (p *prio[T]) sample(now int64) (*stream.Stored[T], bool) {
	p.expire(now)
	if len(p.nodes) == 0 {
		return nil, false
	}
	return p.nodes[0].st, true
}

// words: element (3) + priority (1) per node.
func (p *prio[T]) words() int { return len(p.nodes) * (stream.StoredWords + 1) }

// Priority maintains k independent priority samplers — the
// Babcock–Datar–Motwani with-replacement sampler for timestamp-based
// windows (the E3 comparator of core.TSWR).
type Priority[T any] struct {
	t0       int64
	k        int
	count    uint64
	now      int64 // latest observed timestamp (for clockless Sample)
	copies   []*prio[T]
	maxWords int
}

// NewPriority returns k independent priority samplers with horizon t0.
// Panics if t0 <= 0 or k <= 0.
func NewPriority[T any](rng *xrand.Rand, t0 int64, k int) *Priority[T] {
	if t0 <= 0 {
		panic("baseline: NewPriority with t0 <= 0")
	}
	if k <= 0 {
		panic("baseline: NewPriority with k <= 0")
	}
	p := &Priority[T]{t0: t0, k: k, copies: make([]*prio[T], k)}
	for i := range p.copies {
		p.copies[i] = newPrio[T](rng.Split(), t0)
	}
	p.maxWords = p.Words()
	return p
}

// Observe feeds the next element (timestamps must be non-decreasing).
func (p *Priority[T]) Observe(value T, ts int64) {
	e := stream.Element[T]{Value: value, Index: p.count, TS: ts}
	p.count++
	p.now = ts
	for _, c := range p.copies {
		c.observe(e)
	}
	if w := p.Words(); w > p.maxWords {
		p.maxWords = w
	}
}

// ObserveBatch implements stream.Sampler via the reference loop (priority
// sampling has no batch-amortizable work).
func (p *Priority[T]) ObserveBatch(batch []stream.Element[T]) { stream.ObserveAll[T](p, batch) }

// Sample returns the k samples at the latest observed timestamp.
func (p *Priority[T]) Sample() ([]stream.Element[T], bool) {
	if p.count == 0 {
		return nil, false
	}
	return p.SampleAt(p.now)
}

// SampleAt returns the k samples at time now. ok is false when the window
// is empty.
func (p *Priority[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	out := make([]stream.Element[T], p.k)
	for i, c := range p.copies {
		st, ok := c.sample(now)
		if !ok {
			return nil, false
		}
		out[i] = st.Elem
	}
	return out, true
}

// K returns the number of sample copies.
func (p *Priority[T]) K() int { return p.k }

// Count returns the number of arrivals.
func (p *Priority[T]) Count() uint64 { return p.count }

// Clock returns the latest arrival time and whether there was one.
func (p *Priority[T]) Clock() (int64, bool) { return p.now, p.count > 0 }

// RetainedLens returns the retained-set size of each copy (diagnostics for
// the E3/E4 tables).
func (p *Priority[T]) RetainedLens() []int {
	out := make([]int, p.k)
	for i, c := range p.copies {
		out[i] = len(c.nodes)
	}
	return out
}

// Words implements stream.MemoryReporter.
func (p *Priority[T]) Words() int {
	w := 4 // t0, k, count, now
	for _, c := range p.copies {
		w += c.words()
	}
	return w
}

// MaxWords implements stream.MemoryReporter (a random variable — the E3
// contrast with core.TSWR's deterministic bound).
func (p *Priority[T]) MaxWords() int { return p.maxWords }
