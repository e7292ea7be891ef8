package core

import (
	"fmt"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// TSWOR maintains a uniform k-sample WITHOUT replacement over a
// timestamp-based sliding window of horizon t0, using Θ(k·log n) memory
// words at all times — Theorem 4.4, the black-box reduction from sampling
// without replacement to sampling with replacement.
//
// Construction (Section 4): run k independent single-sample TSWR instances
// R_0, ..., R_{k-1}, where instance R_i samples uniformly from all active
// elements EXCEPT the i newest. The delay is realized by feeding R_i element
// p_{j-i} when p_j arrives, from a shared ring buffer of the k most recent
// elements; per Lemma 4.1, a delayed element that is already expired on
// arrival is skipped (its instance's whole structure is expired then too).
//
// Query (Lemmas 4.2/4.3): order the n active elements oldest (1) to newest
// (n). R_{k-1} is a 1-sample of [1, n-k+1]; inductively extend an a-sample
// of [1, b] to an (a+1)-sample of [1, b+1] using the fresh 1-sample R of
// [1, b+1]:
//
//	S ∪ {newest of the extended domain}  if R ∈ S,
//	S ∪ {R}                              otherwise,
//
// which the paper shows is uniform over all (a+1)-subsets. After k-1 steps
// the result is a uniform k-subset of the whole window. When the window
// holds n ≤ k elements the sample is the window itself, read from the ring
// buffer (the n active elements are always the n newest arrivals).
type TSWOR[T any] struct {
	t0  int64
	k   int
	w   window.Timestamp
	rng *xrand.Rand

	insts []*TSWR[T] // insts[i] samples actives among all-but-the-newest-i

	// ring of the k most recent arrivals
	//swlint:allow wordsacct counted by occupancy tailLen in wordsWithTail, not capacity
	tail    []stream.Element[T]
	tailPos int // next write position
	tailLen int

	// scratch holds the index-assigned elements of the batch being ingested,
	// so delayed feeds within the batch read a flat slice instead of the
	// ring. Transport, not sampler state; not counted by Words.
	scratch []stream.Element[T] //swlint:allow wordsacct recycled batch transport, empty between calls

	count    uint64
	now      int64
	started  bool
	maxWords int
}

// NewTSWOR returns a sampler for a k-sample without replacement over a
// timestamp-based window of horizon t0 ticks. Panics if t0 <= 0 or k <= 0.
func NewTSWOR[T any](rng *xrand.Rand, t0 int64, k int) *TSWOR[T] {
	if t0 <= 0 {
		panic("core: NewTSWOR with t0 <= 0")
	}
	if k <= 0 {
		panic("core: NewTSWOR with k <= 0")
	}
	s := &TSWOR[T]{
		t0:    t0,
		k:     k,
		w:     window.Timestamp{T0: t0},
		rng:   rng.Split(),
		insts: make([]*TSWR[T], k),
		tail:  make([]stream.Element[T], k),
	}
	for i := range s.insts {
		s.insts[i] = NewTSWR[T](rng.Split(), t0, 1)
	}
	s.maxWords = s.Words()
	return s
}

// tailFromEnd returns the element i places from the newest arrival
// (i = 0 is the newest). Panics if fewer than i+1 elements have arrived.
func (s *TSWOR[T]) tailFromEnd(i int) stream.Element[T] {
	if i >= s.tailLen {
		panic("core: TSWOR tailFromEnd out of range")
	}
	idx := (s.tailPos - 1 - i + 2*s.k) % s.k
	return s.tail[idx]
}

// Observe feeds the next stream element. Timestamps must be non-decreasing.
func (s *TSWOR[T]) Observe(value T, ts int64) {
	if s.started && ts < s.now {
		panic(fmt.Sprintf("core: TSWOR time went backwards: %d after %d", ts, s.now))
	}
	s.now = ts
	s.started = true
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++

	// Instance 0 sees the element immediately; instance i sees the element
	// that arrived i steps ago (if any), all under the real clock ts.
	s.insts[0].observeAt(e, ts)
	for i := 1; i < s.k; i++ {
		if i <= s.tailLen {
			s.insts[i].observeAt(s.tailFromEnd(i-1), ts)
		} else {
			// Not enough history yet; still advance the instance clock so
			// its expiry state tracks real time.
			s.insts[i].advance(ts)
		}
	}

	// Now record e as the newest arrival.
	s.tail[s.tailPos] = e
	s.tailPos = (s.tailPos + 1) % s.k
	if s.tailLen < s.k {
		s.tailLen++
	}
	if w := s.Words(); w > s.maxWords {
		s.maxWords = w
	}
}

// ObserveBatch feeds a run of elements (non-decreasing timestamps; Index is
// assigned here). State and randomness are identical to looping Observe —
// every delayed instance sees the same elements under the same clock in the
// same order — but the batch bookkeeping is amortized: delayed feeds for
// in-batch history index a flat slice instead of doing ring-buffer modular
// arithmetic, and the ring itself is rewritten once at batch end (only the
// final k arrivals can survive a batch) rather than once per element.
func (s *TSWOR[T]) ObserveBatch(batch []stream.Element[T]) {
	if len(batch) == 0 {
		return
	}
	s.scratch = s.scratch[:0]
	for _, e := range batch {
		e.Index = s.count
		s.count++
		s.scratch = append(s.scratch, e)
	}
	for _, inst := range s.insts {
		inst.d.beginBatch()
	}
	defer func() {
		for _, inst := range s.insts {
			inst.d.endBatch()
		}
	}()
	preTail := s.tailLen
	for j := range s.scratch {
		e := s.scratch[j]
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("core: TSWOR time went backwards: %d after %d", e.TS, s.now))
		}
		s.now = e.TS
		s.started = true
		s.insts[0].observeAt(e, e.TS)
		for i := 1; i < s.k; i++ {
			// The element that arrived i steps before e: inside the batch for
			// i <= j, otherwise from the pre-batch ring buffer.
			switch {
			case i <= j:
				s.insts[i].observeAt(s.scratch[j-i], e.TS)
			case i-j <= preTail:
				s.insts[i].observeAt(s.tailFromEnd(i-j-1), e.TS)
			default:
				s.insts[i].advance(e.TS)
			}
		}
		// Footprint checkpoint after every element, exactly like Observe; the
		// ring write is deferred, so account for its would-be length.
		effTail := preTail + j + 1
		if effTail > s.k {
			effTail = s.k
		}
		if w := s.wordsWithTail(effTail); w > s.maxWords {
			s.maxWords = w
		}
	}
	// Rewrite the ring: only the last min(k, batch) arrivals survive, landing
	// at the same positions per-element writes would have left them.
	skip := 0
	if len(s.scratch) > s.k {
		skip = len(s.scratch) - s.k
	}
	s.tailPos = (s.tailPos + skip) % s.k
	for _, e := range s.scratch[skip:] {
		s.tail[s.tailPos] = e
		s.tailPos = (s.tailPos + 1) % s.k
		if s.tailLen < s.k {
			s.tailLen++
		}
	}
	clear(s.scratch)
	s.scratch = s.scratch[:0]
}

// activeTail returns the active elements currently in the ring buffer,
// oldest first.
func (s *TSWOR[T]) activeTail(now int64) []stream.Element[T] {
	var out []stream.Element[T]
	for i := s.tailLen - 1; i >= 0; i-- {
		e := s.tailFromEnd(i)
		if s.w.Active(e.TS, now) {
			out = append(out, e)
		}
	}
	return out
}

// SampleAt returns min(k, n) distinct elements forming a uniform
// without-replacement sample of the active window at time now. ok is false
// when the window is empty. Querying advances the clock.
func (s *TSWOR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	if s.started && now < s.now {
		now = s.now // clocks never rewind; keep query monotone
	}
	s.now = now
	s.started = true

	// If fewer than k elements can be active, the window is contained in the
	// ring buffer: the active elements are always the newest arrivals.
	if s.tailLen < s.k {
		act := s.activeTail(now)
		return act, len(act) > 0
	}
	oldestBuffered := s.tailFromEnd(s.k - 1)
	if s.w.Expired(oldestBuffered.TS, now) {
		// n < k: everything active is buffered.
		act := s.activeTail(now)
		return act, len(act) > 0
	}

	// n >= k: Lemma 4.3 induction over the delayed instances.
	res := make([]stream.Element[T], 0, s.k)
	seen := make(map[uint64]bool, s.k)
	for j := 1; j <= s.k; j++ {
		i := s.k - j // instance index: domain = actives except the newest i
		one, ok := s.insts[i].SampleAt(now)
		if !ok {
			// Cannot happen when n >= k: instance i's domain has n-i >= 1
			// elements. Defend anyway.
			panic("core: TSWOR instance empty although n >= k")
		}
		cand := one[0]
		if seen[cand.Index] {
			newest := s.tailFromEnd(i) // the element extending the domain
			res = append(res, newest)
			seen[newest.Index] = true
		} else {
			res = append(res, cand)
			seen[cand.Index] = true
		}
	}
	return res, true
}

// Sample queries at the latest observed time.
func (s *TSWOR[T]) Sample() ([]stream.Element[T], bool) {
	return s.SampleAt(s.now)
}

// K returns the sample-size parameter.
func (s *TSWOR[T]) K() int { return s.k }

// Horizon returns t0.
func (s *TSWOR[T]) Horizon() int64 { return s.t0 }

// Clock returns the latest arrival or query time and whether there was
// one; an earlier arrival panics.
func (s *TSWOR[T]) Clock() (int64, bool) { return s.now, s.started }

// Count returns the number of elements observed.
func (s *TSWOR[T]) Count() uint64 { return s.count }

// ForEachStored implements stream.SlotVisitor: visits every slot of every
// delayed instance. The ring-buffer elements are not slots (they are exact
// window content, not samples) and are not visited.
func (s *TSWOR[T]) ForEachStored(f func(*stream.Stored[T])) {
	for _, inst := range s.insts {
		inst.ForEachStored(f)
	}
}

// Words implements stream.MemoryReporter: the k delayed instances plus the
// k-element ring buffer plus four scalars.
func (s *TSWOR[T]) Words() int { return s.wordsWithTail(s.tailLen) }

// wordsWithTail is Words with an explicit ring-buffer length (the batched
// ingest path defers ring writes and accounts for them here).
func (s *TSWOR[T]) wordsWithTail(tailLen int) int {
	w := 4 + tailLen*stream.StoredWords
	for _, inst := range s.insts {
		w += inst.Words()
	}
	return w
}

// MaxWords implements stream.MemoryReporter.
func (s *TSWOR[T]) MaxWords() int { return s.maxWords }
