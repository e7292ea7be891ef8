package baseline

import (
	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// FullWindow is the store-everything strawman (the approach of Zhang, Li,
// Yu, Wang and Jiang (2005), which adapts reservoir sampling by keeping the
// window in memory): exact uniform samples — with or without replacement —
// at Θ(n) words. It doubles as a correctness oracle in tests and as the
// memory upper anchor in the E1/E3 tables.
type FullWindow[T any] struct {
	seq      *window.SeqBuffer[T] // non-nil for sequence windows
	tsb      *window.TSBuffer[T]  // non-nil for timestamp windows
	rng      *xrand.Rand
	n        uint64 // arrivals
	lastTS   int64  // latest observed timestamp (for clockless Sample)
	k        int    // default sample size for Sample/SampleAt (see Bind)
	wor      bool   // default mode: without replacement
	maxWords int
}

// NewFullWindowSeq returns a full-window sampler over a sequence-based
// window of size n.
func NewFullWindowSeq[T any](rng *xrand.Rand, n uint64) *FullWindow[T] {
	f := &FullWindow[T]{seq: window.NewSeqBuffer[T](n), rng: rng.Split()}
	f.maxWords = f.Words()
	return f
}

// NewFullWindowTS returns a full-window sampler over a timestamp-based
// window of horizon t0.
func NewFullWindowTS[T any](rng *xrand.Rand, t0 int64) *FullWindow[T] {
	f := &FullWindow[T]{tsb: window.NewTSBuffer[T](t0), rng: rng.Split()}
	f.maxWords = f.Words()
	return f
}

// Bind fixes the default sample size and mode used by the interface-shaped
// Sample/SampleAt queries (stream.Sampler has no per-query parameters; the
// explicit SampleWR/SampleWOR remain available). Returns f for chaining.
func (f *FullWindow[T]) Bind(k int, withoutReplacement bool) *FullWindow[T] {
	if k <= 0 {
		panic("baseline: FullWindow.Bind with k <= 0")
	}
	f.k = k
	f.wor = withoutReplacement
	return f
}

// Observe feeds the next element.
func (f *FullWindow[T]) Observe(value T, ts int64) {
	e := stream.Element[T]{Value: value, Index: f.n, TS: ts}
	if f.seq != nil {
		f.seq.Observe(e)
	} else {
		f.tsb.Observe(e)
	}
	f.n++
	f.lastTS = ts
	if w := f.Words(); w > f.maxWords {
		f.maxWords = w
	}
}

// ObserveBatch implements stream.Sampler via the reference loop.
func (f *FullWindow[T]) ObserveBatch(batch []stream.Element[T]) { stream.ObserveAll[T](f, batch) }

// Count returns the number of arrivals.
func (f *FullWindow[T]) Count() uint64 { return f.n }

// Clock returns a timestamp window's clock (see window.TSBuffer.Clock); a
// sequence window has none and reports false.
func (f *FullWindow[T]) Clock() (int64, bool) {
	if f.tsb == nil {
		return 0, false
	}
	return f.tsb.Clock()
}

// K returns the Bind-configured default sample size (0 before Bind).
func (f *FullWindow[T]) K() int { return f.k }

// Sample draws the Bind-configured sample at the latest observed timestamp.
func (f *FullWindow[T]) Sample() ([]stream.Element[T], bool) { return f.SampleAt(f.lastTS) }

// SampleAt draws the Bind-configured sample at time now. Panics if Bind was
// never called (the defaults would be meaningless).
func (f *FullWindow[T]) SampleAt(now int64) ([]stream.Element[T], bool) {
	if f.k <= 0 {
		panic("baseline: FullWindow.Sample before Bind")
	}
	if f.wor {
		return f.SampleWOR(now, f.k)
	}
	return f.SampleWR(now, f.k)
}

// SampleWR returns k exact uniform with-replacement samples at time now
// (now ignored for sequence windows).
func (f *FullWindow[T]) SampleWR(now int64, k int) ([]stream.Element[T], bool) {
	content := f.contents(now)
	if len(content) == 0 {
		return nil, false
	}
	out := make([]stream.Element[T], k)
	for i := range out {
		out[i] = content[f.rng.Intn(len(content))]
	}
	return out, true
}

// SampleWOR returns min(k, n) exact uniform without-replacement samples.
func (f *FullWindow[T]) SampleWOR(now int64, k int) ([]stream.Element[T], bool) {
	content := f.contents(now)
	if len(content) == 0 {
		return nil, false
	}
	if k > len(content) {
		k = len(content)
	}
	out := make([]stream.Element[T], 0, k)
	for _, j := range f.rng.PickK(len(content), k) {
		out = append(out, content[j])
	}
	return out, true
}

func (f *FullWindow[T]) contents(now int64) []stream.Element[T] {
	if f.seq != nil {
		return f.seq.Contents()
	}
	f.tsb.AdvanceTo(now)
	return f.tsb.Contents()
}

// Len returns the current number of active elements.
func (f *FullWindow[T]) Len() int {
	if f.seq != nil {
		return f.seq.Len()
	}
	return f.tsb.Len()
}

// Words implements stream.MemoryReporter: the whole window plus the four
// scalars (arrival counter, clock, and the Bind configuration) — the same
// per-scalar accounting the other baselines use.
func (f *FullWindow[T]) Words() int {
	return 4 + f.Len()*stream.StoredWords
}

// MaxWords implements stream.MemoryReporter.
func (f *FullWindow[T]) MaxWords() int { return f.maxWords }
