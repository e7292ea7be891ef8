package ehist

import (
	"io"
	"math"

	"slidingsample/internal/snap"
)

// Snapshot kind tags.
const (
	kindCounter  = "ehist.Counter"
	kindWeighted = "ehist.Weighted"
)

// Snapshot writes the counter's full state (header included) to w.
func (c *Counter) Snapshot(w io.Writer) error {
	return snap.Save(w, kindCounter, c, encodeCounter)
}

// encodeCounter writes the body on a shared writer (for embedding inside
// an enclosing sampler snapshot).
func encodeCounter(w *snap.Writer, c *Counter) {
	w.I64(c.w.T0)
	w.Int(c.maxPerSize)
	w.I64(c.now)
	w.Bool(c.started)
	w.Int(c.maxWords)
	w.Len(len(c.buckets))
	for _, b := range c.buckets {
		w.I64(b.newest)
		w.I64(b.oldest)
		w.U64(b.size)
	}
}

// Restore reads a Counter snapshot written by Snapshot.
func Restore(r io.Reader) (*Counter, error) {
	return snap.Restore(r, kindCounter, decodeCounter)
}

// decodeCounter reads the body on a shared reader.
func decodeCounter(r *snap.Reader) *Counter {
	c := &Counter{}
	c.w.T0 = r.I64()
	c.maxPerSize = r.Int()
	c.now = r.I64()
	c.started = r.Bool()
	c.maxWords = r.Int()
	if r.Err() != nil {
		return c
	}
	if c.w.T0 <= 0 {
		r.Failf("ehist.Counter with t0 %d", c.w.T0)
		return c
	}
	if c.maxPerSize < 2 {
		r.Failf("ehist.Counter with maxPerSize %d", c.maxPerSize)
		return c
	}
	n := r.Len(-1)
	if r.Err() != nil {
		return c
	}
	if n > 0 && !c.started {
		r.Failf("ehist.Counter with %d buckets and no arrival", n)
		return c
	}
	c.buckets = make([]bucket[int64], 0, snap.CapHint(n))
	prev := bucket[int64]{newest: math.MinInt64, size: math.MaxUint64}
	run := 0 // buckets of prev's size so far
	for i := 0; i < n && r.Err() == nil; i++ {
		b := bucket[int64]{newest: r.I64(), oldest: r.I64(), size: r.U64()}
		if r.Err() != nil || !checkClocks(r, "ehist.Counter", i, prev.newest, b.oldest, b.newest, c.now) {
			break
		}
		// Observe keeps sizes powers of two, never growing toward the
		// newest end, at most maxPerSize of each: the layout the cascade's
		// newest-first walk relies on.
		switch {
		case b.size == 0 || b.size&(b.size-1) != 0:
			r.Failf("ehist.Counter bucket %d with size %d", i, b.size)
		case b.size > prev.size:
			r.Failf("ehist.Counter bucket %d of size %d after size %d", i, b.size, prev.size)
		case b.size == prev.size && run == c.maxPerSize:
			r.Failf("ehist.Counter with more than %d buckets of size %d", c.maxPerSize, b.size)
		}
		if r.Err() != nil {
			break
		}
		if b.size < prev.size {
			run = 0
		}
		run++
		c.buckets = append(c.buckets, b)
		prev = b
	}
	return c
}

// checkClocks refuses bucket clocks that no arrival order produces: the
// bucket's oldest element after its newest, before the previous bucket's
// newest (prevNewest), or after the histogram's clock. It reports whether
// the bucket passed.
func checkClocks(r *snap.Reader, kind string, i int, prevNewest, oldest, newest, now int64) bool {
	switch {
	case oldest > newest:
		r.Failf("%s bucket %d with oldest clock %d after newest %d", kind, i, oldest, newest)
	case oldest < prevNewest:
		r.Failf("%s bucket %d at clock %d before the previous bucket's %d", kind, i, oldest, prevNewest)
	case newest > now:
		r.Failf("%s bucket %d at clock %d after the histogram clock %d", kind, i, newest, now)
	default:
		return true
	}
	return false
}

// Snapshot writes the weight histogram's full state (header included).
func (c *Weighted) Snapshot(w io.Writer) error {
	return snap.Save(w, kindWeighted, c, encodeWeighted)
}

func encodeWeighted(w *snap.Writer, c *Weighted) {
	w.I64(c.w.T0)
	w.F64(c.eps)
	w.F64(c.total)
	w.I64(c.now)
	w.Bool(c.started)
	w.Int(c.maxWords)
	w.Len(len(c.buckets))
	for _, b := range c.buckets {
		w.I64(b.newTS)
		w.I64(b.oldTS)
		w.F64(b.sum)
	}
}

// RestoreWeighted reads a Weighted snapshot written by Snapshot.
func RestoreWeighted(r io.Reader) (*Weighted, error) {
	return snap.Restore(r, kindWeighted, decodeWeighted)
}

func decodeWeighted(r *snap.Reader) *Weighted {
	c := &Weighted{}
	c.w.T0 = r.I64()
	c.eps = r.F64()
	c.total = r.F64()
	c.now = r.I64()
	c.started = r.Bool()
	c.maxWords = r.Int()
	if r.Err() != nil {
		return c
	}
	if c.w.T0 <= 0 {
		r.Failf("ehist.Weighted with t0 %d", c.w.T0)
		return c
	}
	if !(c.eps > 0 && c.eps < 1) {
		r.Failf("ehist.Weighted with eps %v", c.eps)
		return c
	}
	if math.IsNaN(c.total) || math.IsInf(c.total, 0) {
		r.Failf("ehist.Weighted with total %v", c.total)
		return c
	}
	n := r.Len(-1)
	if r.Err() != nil {
		return c
	}
	if n > 0 && !c.started {
		r.Failf("ehist.Weighted with %d buckets and no arrival", n)
		return c
	}
	c.buckets = make([]wbucket, 0, snap.CapHint(n))
	prevNewest := int64(math.MinInt64)
	for i := 0; i < n && r.Err() == nil; i++ {
		b := wbucket{newTS: r.I64(), oldTS: r.I64(), sum: r.F64()}
		if r.Err() != nil || !checkClocks(r, "ehist.Weighted", i, prevNewest, b.oldTS, b.newTS, c.now) {
			break
		}
		if !(b.sum > 0) || math.IsInf(b.sum, 1) {
			r.Failf("ehist.Weighted bucket %d with sum %v", i, b.sum)
			break
		}
		c.buckets = append(c.buckets, b)
		prevNewest = b.newTS
	}
	return c
}

// EncodeCounter/DecodeCounter and EncodeWeighted/DecodeWeighted expose the
// header-less body codec for enclosing samplers (weighted TS substrates
// and the sharded dispatchers embed these oracles).

// EncodeCounter writes a Counter body (nil-aware) on a shared writer.
func EncodeCounter(w *snap.Writer, c *Counter) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	encodeCounter(w, c)
}

// DecodeCounter reads a Counter body written by EncodeCounter.
func DecodeCounter(r *snap.Reader) *Counter {
	if !r.Bool() {
		return nil
	}
	return decodeCounter(r)
}

// EncodeWeighted writes a Weighted body (nil-aware) on a shared writer.
func EncodeWeighted(w *snap.Writer, c *Weighted) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	encodeWeighted(w, c)
}

// DecodeWeighted reads a Weighted body written by EncodeWeighted.
func DecodeWeighted(r *snap.Reader) *Weighted {
	if !r.Bool() {
		return nil
	}
	return decodeWeighted(r)
}
