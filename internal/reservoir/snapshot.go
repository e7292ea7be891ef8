package reservoir

import (
	"slidingsample/internal/snap"
	"slidingsample/internal/stream"
)

// Snapshot encode/decode helpers. They are exported (unlike the fields
// they capture) because internal/core embeds reservoirs inside its own
// snapshots and encodes them on a shared snap.Writer — no per-reservoir
// header, the enclosing sampler owns the header.

// EncodeSingle writes the full state of a Single.
func EncodeSingle[T any](w *snap.Writer, s *Single[T]) {
	snap.WriteRand(w, s.rng)
	w.U64(s.count)
	snap.WriteStored(w, s.cur)
}

// DecodeSingle reads a Single previously written by EncodeSingle.
func DecodeSingle[T any](r *snap.Reader) *Single[T] {
	s := &Single[T]{}
	s.rng = snap.ReadRand(r)
	s.count = r.U64()
	s.cur = snap.ReadStored[T](r)
	if r.Err() == nil && s.rng == nil {
		r.Failf("reservoir.Single missing rng")
	}
	return s
}

// EncodeK writes the full state of a K.
func EncodeK[T any](w *snap.Writer, s *K[T]) {
	snap.WriteRand(w, s.rng)
	w.Int(s.k)
	w.U64(s.count)
	w.Len(len(s.slots))
	for _, st := range s.slots {
		snap.WriteStored(w, st)
	}
}

// DecodeK reads a K previously written by EncodeK.
func DecodeK[T any](r *snap.Reader) *K[T] {
	s := &K[T]{}
	s.rng = snap.ReadRand(r)
	s.k = r.Int()
	s.count = r.U64()
	if r.Err() != nil {
		return s
	}
	if s.rng == nil {
		r.Failf("reservoir.K missing rng")
		return s
	}
	if s.k <= 0 || s.k > snap.MaxParam {
		r.Failf("reservoir.K with k %d", s.k)
		return s
	}
	n := r.Len(s.k)
	s.slots = make([]*stream.Stored[T], 0, snap.CapHint(s.k))
	for i := 0; i < n && r.Err() == nil; i++ {
		s.slots = append(s.slots, snap.ReadStored[T](r))
	}
	return s
}
