package weighted

import (
	"io"
	"math"

	"slidingsample/internal/ehist"
	"slidingsample/internal/snap"
	"slidingsample/internal/window"
)

// Snapshot kind tags.
const (
	kindWOR   = "weighted.WOR"
	kindWR    = "weighted.WR"
	kindTSWOR = "weighted.TSWOR"
	kindTSWR  = "weighted.TSWR"
)

// Weight functions cannot ride a snapshot (they are code, not state), so
// every Restore* here takes the weight function as an argument; the
// substrate layer re-resolves it by name from the spec vocabulary before
// calling down. Decoders construct structs directly — see
// internal/core/snapshot.go for why constructors are bypassed.

func encodeNodes[T any](w *snap.Writer, nodes []node[T]) {
	w.Len(len(nodes))
	for _, nd := range nodes {
		snap.WriteElement(w, nd.elem)
		w.F64(nd.w)
		w.F64(nd.lk)
		w.Int(nd.beat)
	}
}

func decodeNodes[T any](r *snap.Reader) []node[T] {
	n := r.Len(-1)
	if r.Err() != nil {
		return nil
	}
	nodes := make([]node[T], 0, snap.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		nd := node[T]{
			elem: snap.ReadElement[T](r),
			w:    r.F64(),
			lk:   r.F64(),
			beat: r.Int(),
		}
		if r.Err() == nil && (!(nd.w > 0) || math.IsInf(nd.w, 1)) {
			r.Failf("weighted node with weight %v", nd.w)
			break
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

func encodeSkyband[T any](w *snap.Writer, s *skyband[T]) {
	snap.WriteRandValue(w, &s.rng)
	encodeNodes(w, s.nodes)
}

func decodeSkyband[T any](r *snap.Reader, n uint64, k int) skyband[T] {
	return skyband[T]{
		win:   window.Sequence{N: n},
		k:     k,
		rng:   snap.ReadRandValue(r),
		nodes: decodeNodes[T](r),
	}
}

func encodeTSSkyband[T any](w *snap.Writer, s *tsSkyband[T]) {
	snap.WriteRandValue(w, &s.rng)
	encodeNodes(w, s.nodes)
}

func decodeTSSkyband[T any](r *snap.Reader, t0 int64, k int) tsSkyband[T] {
	return tsSkyband[T]{
		win:   window.Timestamp{T0: t0},
		k:     k,
		rng:   snap.ReadRandValue(r),
		nodes: decodeNodes[T](r),
	}
}

// ---------------------------------------------------------------------------
// WOR / WR (sequence windows)
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w. The
// weight function is NOT captured; Restore re-binds it.
func (s *WOR[T]) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w, kindWOR)
	EncodeWOR(sw, s)
	return sw.Err()
}

// EncodeWOR writes the header-less body on a shared writer (for the
// sharded dispatcher snapshots).
func EncodeWOR[T any](w *snap.Writer, s *WOR[T]) {
	w.U64(s.n)
	w.Int(s.k)
	w.U64(s.count)
	w.Int(s.maxWords)
	encodeSkyband(w, &s.sky)
}

// RestoreWOR reads a WOR snapshot, re-binding the given weight function.
func RestoreWOR[T any](r io.Reader, weight func(T) float64) (*WOR[T], error) {
	sr, err := snap.NewReader(r, kindWOR)
	if err != nil {
		return nil, err
	}
	s := DecodeWOR(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeWOR reads the header-less body on a shared reader.
func DecodeWOR[T any](r *snap.Reader, weight func(T) float64) *WOR[T] {
	s := &WOR[T]{weight: weight}
	s.n = r.U64()
	s.k = r.Int()
	s.count = r.U64()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.n == 0 || s.k <= 0 {
		r.Failf("weighted.WOR with n %d, k %d", s.n, s.k)
		return s
	}
	if weight == nil {
		r.Failf("weighted.WOR restored with nil weight function")
		return s
	}
	s.sky = decodeSkyband[T](r, s.n, s.k)
	return s
}

// Snapshot writes the sampler's full state (header included) to w.
func (s *WR[T]) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w, kindWR)
	EncodeWR(sw, s)
	return sw.Err()
}

// EncodeWR writes the header-less body on a shared writer.
func EncodeWR[T any](w *snap.Writer, s *WR[T]) {
	w.U64(s.n)
	w.Int(s.k)
	w.U64(s.count)
	w.Int(s.maxWords)
	for i := range s.insts {
		encodeSkyband(w, &s.insts[i])
	}
}

// RestoreWR reads a WR snapshot, re-binding the given weight function.
func RestoreWR[T any](r io.Reader, weight func(T) float64) (*WR[T], error) {
	sr, err := snap.NewReader(r, kindWR)
	if err != nil {
		return nil, err
	}
	s := DecodeWR(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeWR reads the header-less body on a shared reader.
func DecodeWR[T any](r *snap.Reader, weight func(T) float64) *WR[T] {
	s := &WR[T]{weight: weight}
	s.n = r.U64()
	s.k = r.Int()
	s.count = r.U64()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.n == 0 || s.k <= 0 || s.k > snap.MaxParam {
		r.Failf("weighted.WR with n %d, k %d", s.n, s.k)
		return s
	}
	if weight == nil {
		r.Failf("weighted.WR restored with nil weight function")
		return s
	}
	s.insts = make([]skyband[T], s.k)
	for i := 0; i < s.k && r.Err() == nil; i++ {
		s.insts[i] = decodeSkyband[T](r, s.n, 1)
	}
	return s
}

// ---------------------------------------------------------------------------
// TSWOR / TSWR (timestamp windows)
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w,
// embedded window-size counter included.
func (s *TSWOR[T]) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w, kindTSWOR)
	EncodeTSWOR(sw, s)
	return sw.Err()
}

// EncodeTSWOR writes the header-less body on a shared writer.
func EncodeTSWOR[T any](w *snap.Writer, s *TSWOR[T]) {
	w.I64(s.t0)
	w.Int(s.k)
	w.U64(s.count)
	w.I64(s.now)
	w.Bool(s.started)
	w.Int(s.maxWords)
	encodeTSSkyband(w, &s.sky)
	ehist.EncodeCounter(w, s.est)
}

// RestoreTSWOR reads a TSWOR snapshot, re-binding the weight function.
func RestoreTSWOR[T any](r io.Reader, weight func(T) float64) (*TSWOR[T], error) {
	sr, err := snap.NewReader(r, kindTSWOR)
	if err != nil {
		return nil, err
	}
	s := DecodeTSWOR(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeTSWOR reads the header-less body on a shared reader.
func DecodeTSWOR[T any](r *snap.Reader, weight func(T) float64) *TSWOR[T] {
	s := &TSWOR[T]{weight: weight}
	s.t0 = r.I64()
	s.k = r.Int()
	s.count = r.U64()
	s.now = r.I64()
	s.started = r.Bool()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.t0 <= 0 || s.k <= 0 {
		r.Failf("weighted.TSWOR with t0 %d, k %d", s.t0, s.k)
		return s
	}
	if weight == nil {
		r.Failf("weighted.TSWOR restored with nil weight function")
		return s
	}
	s.sky = decodeTSSkyband[T](r, s.t0, s.k)
	s.est = decodeSizeCounter(r, "weighted.TSWOR", s.now, s.started)
	return s
}

// decodeSizeCounter reads a timestamp sampler's embedded size counter and
// refuses one whose clock is ahead of the sampler's: the sampler advances
// its own clock on every arrival the counter sees (and on queries too), so
// a counter ahead of it is a state no stream produces, and the next
// arrival at the sampler's clock would panic inside the counter.
func decodeSizeCounter(r *snap.Reader, kind string, now int64, started bool) *ehist.Counter {
	est := ehist.DecodeCounter(r)
	if r.Err() != nil {
		return est
	}
	if est == nil {
		r.Failf("%s missing size counter", kind)
		return nil
	}
	if estNow, estStarted := est.Clock(); estStarted && (!started || estNow > now) {
		r.Failf("%s size counter clock %d ahead of the sampler clock %d", kind, estNow, now)
	}
	return est
}

// Snapshot writes the sampler's full state (header included) to w.
func (s *TSWR[T]) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w, kindTSWR)
	EncodeTSWR(sw, s)
	return sw.Err()
}

// EncodeTSWR writes the header-less body on a shared writer.
func EncodeTSWR[T any](w *snap.Writer, s *TSWR[T]) {
	w.I64(s.t0)
	w.Int(s.k)
	w.U64(s.count)
	w.I64(s.now)
	w.Bool(s.started)
	w.Int(s.maxWords)
	for i := range s.insts {
		encodeTSSkyband(w, &s.insts[i])
	}
	ehist.EncodeCounter(w, s.est)
}

// RestoreTSWR reads a TSWR snapshot, re-binding the weight function.
func RestoreTSWR[T any](r io.Reader, weight func(T) float64) (*TSWR[T], error) {
	sr, err := snap.NewReader(r, kindTSWR)
	if err != nil {
		return nil, err
	}
	s := DecodeTSWR(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeTSWR reads the header-less body on a shared reader.
func DecodeTSWR[T any](r *snap.Reader, weight func(T) float64) *TSWR[T] {
	s := &TSWR[T]{weight: weight}
	s.t0 = r.I64()
	s.k = r.Int()
	s.count = r.U64()
	s.now = r.I64()
	s.started = r.Bool()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.t0 <= 0 || s.k <= 0 || s.k > snap.MaxParam {
		r.Failf("weighted.TSWR with t0 %d, k %d", s.t0, s.k)
		return s
	}
	if weight == nil {
		r.Failf("weighted.TSWR restored with nil weight function")
		return s
	}
	s.insts = make([]tsSkyband[T], s.k)
	for i := 0; i < s.k && r.Err() == nil; i++ {
		s.insts[i] = decodeTSSkyband[T](r, s.t0, 1)
	}
	s.est = decodeSizeCounter(r, "weighted.TSWR", s.now, s.started)
	return s
}
