package core

import (
	"io"

	"slidingsample/internal/reservoir"
	"slidingsample/internal/snap"
	"slidingsample/internal/stream"
	"slidingsample/internal/window"
)

// Snapshot kind tags. Only the public Snapshot methods write a header;
// nested structures (buckets, decompositions, delayed instances) ride the
// enclosing writer so one snapshot is one header plus a flat body.
const (
	kindSeqWOR = "core.SeqWOR"
	kindSeqWR  = "core.SeqWR"
	kindTSWR   = "core.TSWR"
	kindTSWOR  = "core.TSWOR"
)

// Every decoder here constructs structs directly instead of going through
// the New* constructors: construction draws generator splits that a
// restore must NOT re-draw (the snapshot carries the exact generator
// states), and constructors panic on bad parameters where a decoder must
// return an error. All parameters are therefore re-validated explicitly.

// ---------------------------------------------------------------------------
// Bucket structures and the covering decomposition
// ---------------------------------------------------------------------------

func encodeBS[T any](w *snap.Writer, b *BS[T]) {
	w.U64(b.X)
	w.U64(b.Y)
	snap.WriteElement(w, b.First)
	for j := range b.R {
		snap.WriteStored(w, b.R[j])
	}
	for j := range b.Q {
		snap.WriteStored(w, b.Q[j])
	}
}

// decodeBS reads one bucket structure with k sample slots. The R/Q twins
// of a live singleton share an allocation pair; the restored twins are
// distinct objects, which is semantically invisible (sharing is a memory
// optimization, never observed by any draw).
func decodeBS[T any](r *snap.Reader, k int) *BS[T] {
	b := &BS[T]{}
	b.X = r.U64()
	b.Y = r.U64()
	b.First = snap.ReadElement[T](r)
	if r.Err() != nil {
		return b
	}
	if b.Y <= b.X {
		r.Failf("core.BS with range [%d,%d)", b.X, b.Y)
		return b
	}
	p := make([]*stream.Stored[T], 2*k)
	b.R = p[:k:k]
	b.Q = p[k : 2*k : 2*k]
	for j := 0; j < k && r.Err() == nil; j++ {
		if b.R[j] = snap.ReadStored[T](r); b.R[j] == nil && r.Err() == nil {
			r.Failf("core.BS with nil R slot")
		}
	}
	for j := 0; j < k && r.Err() == nil; j++ {
		if b.Q[j] = snap.ReadStored[T](r); b.Q[j] == nil && r.Err() == nil {
			r.Failf("core.BS with nil Q slot")
		}
	}
	return b
}

func encodeDecomp[T any](w *snap.Writer, d *decomp[T]) {
	snap.WriteRand(w, d.rng)
	w.Len(len(d.list))
	for _, b := range d.list {
		encodeBS(w, b)
	}
}

// decodeDecomp reads a covering decomposition with k slots. The transient
// batch machinery (scratch double buffer, arenas) is never captured; a
// restored decomposition starts with cold buffers, which changes no draw.
func decodeDecomp[T any](r *snap.Reader, k int) *decomp[T] {
	d := &decomp[T]{k: k}
	d.rng = snap.ReadRand(r)
	if r.Err() != nil {
		return d
	}
	if d.rng == nil {
		r.Failf("core.decomp missing rng")
		return d
	}
	n := r.Len(-1)
	d.list = make([]*BS[T], 0, snap.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		b := decodeBS[T](r, k)
		if r.Err() != nil {
			break
		}
		if i > 0 && b.X != d.list[i-1].Y {
			r.Failf("core.decomp gap at bucket %d", i)
			break
		}
		d.list = append(d.list, b)
	}
	return d
}

// ---------------------------------------------------------------------------
// SeqWOR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w.
func (s *SeqWOR[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindSeqWOR, s, encodeSeqWOR[T])
}

// RestoreSeqWOR reads a SeqWOR snapshot written by Snapshot.
func RestoreSeqWOR[T any](r io.Reader) (*SeqWOR[T], error) {
	return snap.Restore(r, kindSeqWOR, decodeSeqWOR[T])
}

func encodeSeqWOR[T any](w *snap.Writer, s *SeqWOR[T]) {
	w.U64(s.n)
	w.Int(s.k)
	snap.WriteRand(w, s.rng)
	w.U64(s.count)
	w.Int(s.maxWords)
	reservoir.EncodeK(w, s.partial)
	if s.complete == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.Len(len(s.complete))
		for _, st := range s.complete {
			snap.WriteStored(w, st)
		}
	}
}

func decodeSeqWOR[T any](r *snap.Reader) *SeqWOR[T] {
	s := &SeqWOR[T]{}
	s.n = r.U64()
	s.k = r.Int()
	s.rng = snap.ReadRand(r)
	s.count = r.U64()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.n == 0 || s.k <= 0 || s.k > snap.MaxParam || s.rng == nil {
		r.Failf("core.SeqWOR with n %d, k %d", s.n, s.k)
		return s
	}
	s.win = window.Sequence{N: s.n}
	s.partial = reservoir.DecodeK[T](r)
	if r.Err() != nil {
		return s
	}
	if s.partial.Cap() != s.k {
		r.Failf("core.SeqWOR partial reservoir cap %d, want %d", s.partial.Cap(), s.k)
		return s
	}
	if r.Bool() {
		n := r.Len(s.k)
		s.complete = make([]*stream.Stored[T], 0, snap.CapHint(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			st := snap.ReadStored[T](r)
			if st == nil && r.Err() == nil {
				r.Failf("core.SeqWOR with nil complete slot")
				break
			}
			s.complete = append(s.complete, st)
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// SeqWR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w.
func (s *SeqWR[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindSeqWR, s, EncodeSeqWR[T])
}

// RestoreSeqWR reads a SeqWR snapshot written by Snapshot.
func RestoreSeqWR[T any](r io.Reader) (*SeqWR[T], error) {
	return snap.Restore(r, kindSeqWR, DecodeSeqWR[T])
}

// EncodeSeqWR writes the header-less body on a shared writer (for the
// sharded dispatcher snapshots).
func EncodeSeqWR[T any](w *snap.Writer, s *SeqWR[T]) {
	w.U64(s.n)
	w.Int(s.k)
	w.U64(s.count)
	w.Int(s.maxWords)
	for i := 0; i < s.k; i++ {
		reservoir.EncodeSingle(w, s.partial[i])
		snap.WriteStored(w, s.complete[i])
	}
}

// DecodeSeqWR reads the header-less body on a shared reader.
func DecodeSeqWR[T any](r *snap.Reader) *SeqWR[T] {
	s := &SeqWR[T]{}
	s.n = r.U64()
	s.k = r.Int()
	s.count = r.U64()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.n == 0 || s.k <= 0 || s.k > snap.MaxParam {
		r.Failf("core.SeqWR with n %d, k %d", s.n, s.k)
		return s
	}
	s.win = window.Sequence{N: s.n}
	s.partial = make([]*reservoir.Single[T], s.k)
	s.complete = make([]*stream.Stored[T], s.k)
	for i := 0; i < s.k && r.Err() == nil; i++ {
		s.partial[i] = reservoir.DecodeSingle[T](r)
		s.complete[i] = snap.ReadStored[T](r)
	}
	return s
}

// ---------------------------------------------------------------------------
// TSWR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w. The
// sampler must not be mid-ingest (single-goroutine contract, as ever).
func (s *TSWR[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindTSWR, s, EncodeTSWR[T])
}

// RestoreTSWR reads a TSWR snapshot written by Snapshot.
func RestoreTSWR[T any](r io.Reader) (*TSWR[T], error) {
	return snap.Restore(r, kindTSWR, DecodeTSWR[T])
}

// EncodeTSWR writes the header-less body on a shared writer.
func EncodeTSWR[T any](w *snap.Writer, s *TSWR[T]) {
	w.I64(s.t0)
	w.Int(s.k)
	snap.WriteRand(w, s.rng)
	w.U64(s.count)
	w.I64(s.now)
	w.Bool(s.started)
	w.Int(s.maxWords)
	if s.straddle == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		encodeBS(w, s.straddle)
	}
	encodeDecomp(w, s.d)
}

// DecodeTSWR reads the header-less body on a shared reader. Observe
// appends index count next, so a non-empty decomposition must end there.
func DecodeTSWR[T any](r *snap.Reader) *TSWR[T] {
	s := decodeTSWR[T](r)
	if r.Err() == nil && !s.d.Empty() && s.d.End() != s.count {
		r.Failf("core.TSWR decomposition ends at %d, count %d", s.d.End(), s.count)
	}
	return s
}

// decodeTSWR reads a TSWR body without relating it to its count: a
// TSWOR's delayed instances are fed through observeAt, which leaves their
// own count at 0, so DecodeTSWOR checks them against its count instead.
func decodeTSWR[T any](r *snap.Reader) *TSWR[T] {
	s := &TSWR[T]{}
	s.t0 = r.I64()
	s.k = r.Int()
	s.rng = snap.ReadRand(r)
	s.count = r.U64()
	s.now = r.I64()
	s.started = r.Bool()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.t0 <= 0 || s.k <= 0 || s.k > snap.MaxParam || s.rng == nil {
		r.Failf("core.TSWR with t0 %d, k %d", s.t0, s.k)
		return s
	}
	s.w = window.Timestamp{T0: s.t0}
	if r.Bool() {
		s.straddle = decodeBS[T](r, s.k)
	}
	s.d = decodeDecomp[T](r, s.k)
	if r.Err() != nil {
		return s
	}
	// Lemma 3.5 case 2 shape: a straddle only exists alongside a non-empty
	// suffix decomposition starting where the straddle ends.
	if s.straddle != nil && (s.d.Empty() || s.d.Start() != s.straddle.Y) {
		r.Failf("core.TSWR straddle/decomposition mismatch")
	}
	return s
}

// ---------------------------------------------------------------------------
// TSWOR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w.
func (s *TSWOR[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindTSWOR, s, EncodeTSWOR[T])
}

// RestoreTSWOR reads a TSWOR snapshot written by Snapshot.
func RestoreTSWOR[T any](r io.Reader) (*TSWOR[T], error) {
	return snap.Restore(r, kindTSWOR, DecodeTSWOR[T])
}

// EncodeTSWOR writes the header-less body on a shared writer. The ring
// buffer is flattened oldest-first so the wire format is independent of
// the cursor position.
func EncodeTSWOR[T any](w *snap.Writer, s *TSWOR[T]) {
	w.I64(s.t0)
	w.Int(s.k)
	snap.WriteRand(w, s.rng)
	w.U64(s.count)
	w.I64(s.now)
	w.Bool(s.started)
	w.Int(s.maxWords)
	for _, inst := range s.insts {
		EncodeTSWR(w, inst)
	}
	w.Len(s.tailLen)
	for i := s.tailLen - 1; i >= 0; i-- {
		snap.WriteElement(w, s.tailFromEnd(i))
	}
}

// DecodeTSWOR reads the header-less body on a shared reader. The ring is
// rebuilt oldest-first from position 0 with the cursor after the newest
// element — a different in-memory rotation than the snapshotted one, but
// tailFromEnd only ever indexes relative to the cursor, so every future
// read and write lands on the same elements.
func DecodeTSWOR[T any](r *snap.Reader) *TSWOR[T] {
	s := &TSWOR[T]{}
	s.t0 = r.I64()
	s.k = r.Int()
	s.rng = snap.ReadRand(r)
	s.count = r.U64()
	s.now = r.I64()
	s.started = r.Bool()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.t0 <= 0 || s.k <= 0 || s.k > snap.MaxParam || s.rng == nil {
		r.Failf("core.TSWOR with t0 %d, k %d", s.t0, s.k)
		return s
	}
	s.w = window.Timestamp{T0: s.t0}
	s.insts = make([]*TSWR[T], s.k)
	// Each delayed instance is a 1-sample over the same horizon whose
	// clock never runs ahead of the TSWOR's.
	for i := 0; i < s.k && r.Err() == nil; i++ {
		inst := decodeTSWR[T](r)
		s.insts[i] = inst
		switch {
		case r.Err() != nil:
		case inst.k != 1 || inst.t0 != s.t0:
			r.Failf("core.TSWOR instance %d with t0 %d, k %d", i, inst.t0, inst.k)
		case inst.started && (!s.started || inst.now > s.now):
			r.Failf("core.TSWOR instance %d clock %d is ahead of its clock %d (started %v)", i, inst.now, s.now, s.started)
		}
	}
	if r.Err() != nil {
		return s
	}
	s.tail = make([]stream.Element[T], s.k)
	s.tailLen = r.Len(s.k)
	if r.Err() == nil && uint64(s.tailLen) != min(s.count, uint64(s.k)) {
		r.Failf("core.TSWOR ring holds %d, count %d", s.tailLen, s.count)
	}
	for i := 0; i < s.tailLen && r.Err() == nil; i++ {
		e := snap.ReadElement[T](r)
		s.tail[i] = e
		switch {
		case r.Err() != nil:
		case e.Index != s.count-uint64(s.tailLen-i):
			r.Failf("core.TSWOR ring index %d, want %d", e.Index, s.count-uint64(s.tailLen-i))
		case !s.started || e.TS > s.now || (i > 0 && e.TS < s.tail[i-1].TS):
			r.Failf("core.TSWOR ring timestamp %d out of order or past clock %d", e.TS, s.now)
		}
	}
	s.tailPos = s.tailLen % s.k
	// Instance i was last fed ring element i from the newest, if there is
	// one, and Append left it as the instance's last bucket, a singleton.
	// Only that element's expiry can have emptied the instance since.
	for i := 0; i < s.k && r.Err() == nil; i++ {
		d := s.insts[i].d
		switch {
		case i >= s.tailLen:
			if !d.Empty() {
				r.Failf("core.TSWOR instance %d is not empty at count %d", i, s.count)
			}
		case d.Empty():
			if s.w.Active(s.tailFromEnd(i).TS, s.now) {
				r.Failf("core.TSWOR instance %d empty while its last arrival is active", i)
			}
		default:
			last, e := d.Last(), s.tailFromEnd(i)
			if last.X != e.Index || last.Y != e.Index+1 || last.First.Index != e.Index || last.First.TS != e.TS {
				r.Failf("core.TSWOR instance %d last bucket [%d,%d) is not ring element %d", i, last.X, last.Y, e.Index)
			}
		}
	}
	return s
}
