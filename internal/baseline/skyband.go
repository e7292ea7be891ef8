package baseline

import (
	"sort"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// skyNode is a retained element in the k-skyband: its priority plus the
// number of later elements with higher priority observed so far.
type skyNode[T any] struct {
	st        *stream.Stored[T]
	prio      uint64
	dominated int // later, higher-priority arrivals seen so far
}

// Skyband is the Gemulla–Lehner style extension of priority sampling to
// sampling WITHOUT replacement from timestamp-based windows: retain every
// element that has fewer than k later elements with higher priority (the
// "k highest priorities" successors list). The k-WOR sample at time t is
// the k highest-priority ACTIVE elements — uniform because priorities are
// i.i.d. The retained-set size is O(k log n) in expectation but randomized
// (the E5 comparator of core.TSWOR).
type Skyband[T any] struct {
	t0       int64
	k        int
	w        window.Timestamp
	rng      *xrand.Rand
	count    uint64
	now      int64        // latest observed timestamp (for clockless Sample)
	nodes    []skyNode[T] // arrival order
	maxWords int
}

// NewSkyband returns a k-WOR skyband sampler with horizon t0.
// Panics if t0 <= 0 or k <= 0.
func NewSkyband[T any](rng *xrand.Rand, t0 int64, k int) *Skyband[T] {
	if t0 <= 0 {
		panic("baseline: NewSkyband with t0 <= 0")
	}
	if k <= 0 {
		panic("baseline: NewSkyband with k <= 0")
	}
	s := &Skyband[T]{t0: t0, k: k, w: window.Timestamp{T0: t0}, rng: rng.Split()}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next element (timestamps must be non-decreasing).
func (s *Skyband[T]) Observe(value T, ts int64) {
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	s.now = ts
	pr := s.rng.Uint64()
	// Dominate older, lower-priority elements; drop the ones that are now
	// dominated k times (they can never again be among the k highest
	// priorities of any future window).
	keep := s.nodes[:0]
	for _, nd := range s.nodes {
		if nd.prio < pr {
			nd.dominated++
		}
		if nd.dominated < s.k {
			keep = append(keep, nd)
		}
	}
	s.nodes = keep
	s.nodes = append(s.nodes, skyNode[T]{st: &stream.Stored[T]{Elem: e}, prio: pr})
	s.expire(ts)
	if w := s.Words(); w > s.maxWords {
		s.maxWords = w
	}
}

func (s *Skyband[T]) expire(now int64) {
	i := 0
	for i < len(s.nodes) && s.w.Expired(s.nodes[i].st.Elem.TS, now) {
		i++
	}
	if i > 0 {
		s.nodes = append(s.nodes[:0:0], s.nodes[i:]...)
	}
}

// ObserveBatch implements stream.Sampler via the reference loop (the skyband
// has no batch-amortizable work).
func (s *Skyband[T]) ObserveBatch(batch []stream.Element[T]) { stream.ObserveAll[T](s, batch) }

// Sample returns the sample at the latest observed timestamp.
func (s *Skyband[T]) Sample() ([]stream.Element[T], bool) {
	if s.count == 0 {
		return nil, false
	}
	return s.SampleAt(s.now)
}

// SampleAt returns the min(k, n) active elements with the highest
// priorities — a uniform without-replacement sample. ok is false when the
// window is empty.
func (s *Skyband[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	s.expire(now)
	if len(s.nodes) == 0 {
		return nil, false
	}
	idx := make([]int, len(s.nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.nodes[idx[a]].prio > s.nodes[idx[b]].prio })
	m := s.k
	if len(idx) < m {
		m = len(idx)
	}
	out := make([]stream.Element[T], m)
	for i := 0; i < m; i++ {
		out[i] = s.nodes[idx[i]].st.Elem
	}
	return out, true
}

// K returns the sample-size parameter.
func (s *Skyband[T]) K() int { return s.k }

// Count returns the number of arrivals.
func (s *Skyband[T]) Count() uint64 { return s.count }

// Clock returns the latest arrival time and whether there was one.
func (s *Skyband[T]) Clock() (int64, bool) { return s.now, s.count > 0 }

// Retained returns the current retained-set size (diagnostics).
func (s *Skyband[T]) Retained() int { return len(s.nodes) }

// Words implements stream.MemoryReporter: element (3) + priority (1) +
// domination counter (1) per node, plus four scalars (t0, k, count, now).
func (s *Skyband[T]) Words() int {
	return 4 + len(s.nodes)*(stream.StoredWords+2)
}

// MaxWords implements stream.MemoryReporter (randomized — the E5 contrast).
func (s *Skyband[T]) MaxWords() int { return s.maxWords }
