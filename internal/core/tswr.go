package core

import (
	"fmt"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// TSWR maintains k independent uniform samples (sampling WITH replacement)
// over a timestamp-based sliding window of horizon t0 — an element with
// timestamp ts is active at time now iff now - ts < t0 — using Θ(k·log n)
// memory words at all times, where n is the number of active elements.
// This is Theorem 3.9 (k = 1) run with k independent sample slots over a
// shared, deterministic bucket skeleton.
//
// State (Lemma 3.5): at every moment the sampler holds one of
//
//  1. a covering decomposition ζ(l(t), N(t)) over exactly the active
//     elements, or
//  2. a STRADDLING bucket structure BS(y, z) with p_y expired and p_z
//     active, plus ζ(z, N(t)) over the (all active) suffix, with the
//     invariant z - y ≤ N(t)+1-z (i.e. α ≤ β).
//
// Query (Lemma 3.8): in case 1 pick a bucket with probability proportional
// to width and output its R sample. In case 2 the straddling bucket holds an
// unknown number γ of active elements; output its R sample when it is active
// AND the Lemma 3.7 implicit event (probability α/(β+γ)) fires, otherwise
// the suffix sample. Either way every active element has probability exactly
// 1/n.
//
// Sharing the skeleton across k slots is sound because bucket boundaries are
// a deterministic function of arrival indexes; all randomness lives in the
// per-slot (R, Q) pairs, the per-slot merge coins, and the per-slot query
// draws, which are mutually independent.
type TSWR[T any] struct {
	t0  int64
	k   int
	w   window.Timestamp
	rng *xrand.Rand

	count    uint64 // arrivals; the next element gets index count
	now      int64  // latest time observed (arrivals and queries both advance it)
	started  bool
	straddle *BS[T] // nil in case 1
	d        *decomp[T]

	maxWords int
}

// NewTSWR returns a sampler for k with-replacement samples over a
// timestamp-based window of horizon t0 ticks. Panics if t0 <= 0 or k <= 0.
func NewTSWR[T any](rng *xrand.Rand, t0 int64, k int) *TSWR[T] {
	if t0 <= 0 {
		panic("core: NewTSWR with t0 <= 0")
	}
	if k <= 0 {
		panic("core: NewTSWR with k <= 0")
	}
	s := &TSWR[T]{
		t0:  t0,
		k:   k,
		w:   window.Timestamp{T0: t0},
		rng: rng.Split(),
		d:   newDecomp[T](rng.Split(), k),
	}
	s.maxWords = s.Words()
	return s
}

// Observe feeds the next stream element. Timestamps must be non-decreasing;
// Observe panics otherwise (the public wrapper in the root package converts
// this to an error).
func (s *TSWR[T]) Observe(value T, ts int64) {
	e := stream.Element[T]{Value: value, Index: s.count, TS: ts}
	s.count++
	s.observeAt(e, ts)
}

// observeAt inserts element e while the current wall-clock is now. For the
// plain sampler now == e.TS; the Theorem 4.4 reduction feeds DELAYED
// elements, where e arrived in the past (e.TS <= now) and may even already
// be expired — per Lemma 4.1 such elements are skipped after clearing the
// (then fully expired) decomposition.
func (s *TSWR[T]) observeAt(e stream.Element[T], now int64) {
	if s.started && now < s.now {
		panic(fmt.Sprintf("core: TSWR time went backwards: %d after %d", now, s.now))
	}
	if e.TS > now {
		panic("core: TSWR element timestamp in the future")
	}
	s.advance(now)
	if s.w.Expired(e.TS, s.now) {
		// Everything in the structure is at least as old as e, so it is all
		// expired too (expire() above has already cleared it). Skip e.
		s.straddle = nil
		s.d.Clear()
		return
	}
	s.d.Append(e)
	if w := s.Words(); w > s.maxWords {
		s.maxWords = w
	}
}

// ObserveBatch feeds a run of elements (non-decreasing timestamps; Index is
// assigned here). State and randomness are identical to looping Observe —
// appends and merge coins happen element by element — but the expiry path is
// amortized: the Lemma 3.5 case analysis only changes state when the clock
// moves, so a burst of equal timestamps pays for one expiry scan instead of
// one per element, and the future-timestamp/already-expired guards of the
// delayed-feed path (never reachable when now == e.TS) are skipped.
func (s *TSWR[T]) ObserveBatch(batch []stream.Element[T]) {
	s.d.beginBatch()
	defer s.d.endBatch()
	for i := range batch {
		e := batch[i]
		e.Index = s.count
		s.count++
		if s.started && e.TS < s.now {
			panic(fmt.Sprintf("core: TSWR time went backwards: %d after %d", e.TS, s.now))
		}
		if !s.started || e.TS > s.now {
			s.now = e.TS
			s.started = true
			s.expire()
		}
		s.d.Append(e)
		if w := s.Words(); w > s.maxWords {
			s.maxWords = w
		}
	}
}

// advance moves the clock to max(now, current) and processes expiry per the
// Lemma 3.5 case analysis.
func (s *TSWR[T]) advance(now int64) {
	if !s.started || now > s.now {
		s.now = now
		s.started = true
	}
	s.expire()
}

// expire restores the Lemma 3.5 state invariant at time s.now:
//
//   - if the newest element p_N expired, everything did: full reset
//     (cases 2b/3b);
//   - otherwise drop every leading bucket whose FIRST element expired; the
//     last such bucket becomes the new straddling bucket (cases 2c/3c) —
//     all earlier dropped buckets contain only elements older than the new
//     straddle's first element, hence fully expired;
//   - if no leading bucket expired, the existing straddle (if any) is still
//     valid because p_z is still active (cases 2a/3a).
func (s *TSWR[T]) expire() {
	if s.d.Empty() {
		return
	}
	if s.w.Expired(s.d.Last().First.TS, s.now) {
		s.straddle = nil
		s.d.Clear()
		return
	}
	j := 0
	for j < s.d.Len() && s.w.Expired(s.d.At(j).First.TS, s.now) {
		j++
	}
	if j > 0 {
		s.straddle = s.d.At(j - 1)
		s.d.DropPrefix(j)
	}
}

// sampleStored returns the k live sample slots at time now (clock advances
// to max(now, latest)). ok is false when the window is empty.
func (s *TSWR[T]) sampleStored(now int64) ([]*stream.Stored[T], bool) {
	s.advance(now)
	if s.d.Empty() {
		return nil, false
	}
	beta := s.d.TotalWidth()
	out := make([]*stream.Stored[T], s.k)
	for j := 0; j < s.k; j++ {
		r2 := s.d.PickWeighted(j)
		if s.straddle == nil {
			out[j] = r2
			continue
		}
		r1 := s.straddle.R[j]
		if s.w.Active(r1.Elem.TS, s.now) && implicitEvent(s.rng, s.straddle, j, beta, s.w, s.now) {
			out[j] = r1
		} else {
			out[j] = r2
		}
	}
	return out, true
}

// SampleAt returns k elements, each uniform over the active window at time
// now, mutually independent. ok is false when no element is active.
// Querying advances the sampler's clock (it never rewinds).
func (s *TSWR[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	st, ok := s.sampleStored(now)
	if !ok {
		return nil, false
	}
	out := make([]stream.Element[T], len(st))
	for i, p := range st {
		out[i] = p.Elem
	}
	return out, true
}

// SampleSlots is SampleAt exposing live slots (with Aux) for the Section 5
// application layer.
func (s *TSWR[T]) SampleSlots(now int64) ([]*stream.Stored[T], bool) {
	return s.sampleStored(now)
}

// SlotsAt implements stream.SlotSampler.
func (s *TSWR[T]) SlotsAt(now int64) ([]*stream.Stored[T], bool) {
	return s.sampleStored(now)
}

// Sample queries at the latest observed time.
func (s *TSWR[T]) Sample() ([]stream.Element[T], bool) {
	return s.SampleAt(s.now)
}

// K returns the number of sample copies.
func (s *TSWR[T]) K() int { return s.k }

// Horizon returns t0.
func (s *TSWR[T]) Horizon() int64 { return s.t0 }

// Clock returns the latest arrival or query time and whether there was
// one; an earlier arrival panics.
func (s *TSWR[T]) Clock() (int64, bool) { return s.now, s.started }

// Count returns the number of elements observed (including any skipped as
// already-expired by the delayed feed of Theorem 4.4).
func (s *TSWR[T]) Count() uint64 { return s.count }

// ForEachStored implements stream.SlotVisitor: visits the R and Q slots of
// the straddling bucket and of every decomposition bucket.
func (s *TSWR[T]) ForEachStored(f func(*stream.Stored[T])) {
	visit := func(b *BS[T]) {
		for _, st := range b.R {
			f(st)
		}
		for _, st := range b.Q {
			f(st)
		}
	}
	if s.straddle != nil {
		visit(s.straddle)
	}
	for i := 0; i < s.d.Len(); i++ {
		visit(s.d.At(i))
	}
}

// Words implements stream.MemoryReporter: the decomposition, the straddling
// bucket if any, and four scalars (t0, k, count, now).
func (s *TSWR[T]) Words() int {
	w := 4 + s.d.Words()
	if s.straddle != nil {
		w += bsWords(s.k)
	}
	return w
}

// MaxWords implements stream.MemoryReporter.
func (s *TSWR[T]) MaxWords() int { return s.maxWords }

// bucketCount returns the number of live bucket structures including the
// straddle (diagnostics and the E3 memory table).
func (s *TSWR[T]) bucketCount() int {
	n := s.d.Len()
	if s.straddle != nil {
		n++
	}
	return n
}
