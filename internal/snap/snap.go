// Package snap is the versioned binary snapshot codec behind every
// sampler's Snapshot/Restore pair.
//
// Format: a snapshot is a header followed by a flat little-endian body.
//
//	magic   4 bytes  "SWS1"
//	version u16      snap.Version
//	kind    string   length-prefixed type tag, e.g. "core.TSWOR"
//	body    ...      fixed-width u64-based primitives, length-prefixed
//	                 strings/bytes, tagged values
//
// The header pins both the codec version and the concrete type, so a
// reader pointed at the wrong snapshot fails loudly instead of decoding
// garbage. Save and Restore are the one skeleton every snapshot goes
// through: Save writes the header and hands a Writer to the kind's body
// encoder, Restore checks the header, hands a Reader to the body decoder
// and returns the first error. Both Writer and Reader are sticky-error:
// the first failure is latched and every later call is a no-op, so body
// codecs read as straight-line field lists, and a decoder refuses bad
// input by latching it with Failf rather than returning early.
//
// A snapshot may embed another whole snapshot after its body (the serve
// header, the substrate spec and the public timestamp adapters do): the
// codec reads exactly what was written, so the inner snapshot starts at
// the next byte of the same stream.
//
// Decoders must never panic on corrupt input (the FuzzRestore batteries
// enforce this): all length prefixes are bounded before allocation, byte
// payloads are read in chunks so a lying length hits EOF before OOM, and
// every numeric parameter is validated by its decoder after it is read.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// Version is the current snapshot format version. Bump it only with a
// migration path: old-version snapshots are rejected, not skewed.
const Version = 1

// magic identifies a slidingsample snapshot stream.
var magic = [4]byte{'S', 'W', 'S', '1'}

// Limits on length prefixes. They bound allocation on corrupt input; real
// snapshots stay far below them (samplers are O(k·log n) words).
const (
	// MaxString bounds a length-prefixed string or byte payload.
	MaxString = 1 << 20
	// MaxLen bounds a collection length prefix.
	MaxLen = 1 << 24
	// MaxParam bounds decoded structural parameters (k, g, n) that size
	// allocations directly: a corrupt parameter must not buy a 100MB+
	// make before the next read hits EOF. Real parameters are orders of
	// magnitude below this.
	MaxParam = 1 << 20
	// chunk is the incremental read size for byte payloads: a corrupt
	// length prefix exhausts the reader before it exhausts memory.
	chunk = 64 << 10
)

// ErrFormat is wrapped by every decode failure that indicates a
// malformed, truncated, or mismatched snapshot (as opposed to an
// underlying I/O error).
var ErrFormat = errors.New("snap: malformed snapshot")

// Errorf returns a decode error wrapping ErrFormat.
func Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// Save writes one snapshot of s to w: the header naming kind, then the
// body through encode. It returns the first write error.
func Save[S any](w io.Writer, kind string, s S, encode func(*Writer, S)) error {
	sw := newWriter(w, kind)
	encode(sw, s)
	return sw.err
}

// Restore reads one snapshot written by Save: it checks the header for
// kind, then decodes the body with decode. A header, read or refusal
// failure returns the zero S and the first error, so a decoder that
// starts goroutines must do so last, once nothing else can fail.
func Restore[S any](r io.Reader, kind string, decode func(*Reader) S) (S, error) {
	var zero S
	sr, err := newReader(r, kind)
	if err != nil {
		return zero, err
	}
	s := decode(sr)
	if sr.err != nil {
		return zero, sr.err
	}
	return s, nil
}

// Writer encodes a snapshot body. Save constructs it after the header;
// body encoders write fields and never check errors themselves.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
}

// newWriter emits the magic+version+kind header and returns a body writer.
func newWriter(w io.Writer, kind string) *Writer {
	sw := &Writer{w: w}
	if _, err := w.Write(magic[:]); err != nil {
		sw.err = err
		return sw
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	if _, err := w.Write(v[:]); err != nil {
		sw.err = err
		return sw
	}
	sw.String(kind)
	return sw
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:])
}

// I64 writes an int64 (two's-complement u64).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int (as int64; the decoder bound-checks on the way back).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 via its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one u64 (0 or 1; fixed width keeps the format
// trivially seekable and the golden fixtures easy to eyeball).
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Bytes writes a length-prefixed byte payload.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil || len(b) == 0 {
		return
	}
	_, w.err = w.w.Write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Len writes a collection length prefix.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

// Reader decodes a snapshot body. Restore constructs it after the header
// checked out and returns its first error once the body decoder is done.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

// newReader verifies the magic, version, and kind header. A mismatch is a
// hard error: restoring a "core.SeqWR" stream into a TSWOR decoder must
// fail before a single body field is read.
func newReader(r io.Reader, kind string) (*Reader, error) {
	sr := &Reader{r: r}
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, Errorf("reading magic: %v", err)
	}
	if m != magic {
		return nil, Errorf("bad magic %q", m[:])
	}
	var v [2]byte
	if _, err := io.ReadFull(r, v[:]); err != nil {
		return nil, Errorf("reading version: %v", err)
	}
	if got := binary.LittleEndian.Uint16(v[:]); got != Version {
		return nil, Errorf("unsupported snapshot version %d (want %d)", got, Version)
	}
	got := sr.String()
	if sr.err != nil {
		return nil, sr.err
	}
	if got != kind {
		return nil, Errorf("snapshot kind %q, want %q", got, kind)
	}
	return sr, nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Failf latches a formatted ErrFormat-wrapping error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = Errorf(format, args...)
	}
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		r.err = Errorf("truncated: %v", err)
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int, rejecting values outside the platform int range.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.Failf("int out of range: %d", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	switch v := r.U64(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("bad bool %d", v)
		return false
	}
}

// Bytes reads a length-prefixed byte payload, bounded by MaxString and
// read in chunks so a corrupt length hits EOF before a huge allocation.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > MaxString {
		r.Failf("byte payload length %d exceeds limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, 0, min(int(n), chunk))
	remaining := int(n)
	for remaining > 0 {
		step := min(remaining, chunk)
		start := len(out)
		out = append(out, make([]byte, step)...)
		if _, err := io.ReadFull(r.r, out[start:]); err != nil {
			r.err = Errorf("truncated payload: %v", err)
			return nil
		}
		remaining -= step
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// CapHint bounds an initial slice capacity taken from a decoded length:
// the claimed length may lie on corrupt input, so decoders allocate
// small and let append grow toward the real, EOF-bounded element count.
func CapHint(n int) int {
	if n < 0 {
		return 0
	}
	if n > 4096 {
		return 4096
	}
	return n
}

// Len reads a collection length prefix bounded by max (and MaxLen).
// Slice-decode loops must also guard on Err() so a latched failure does
// not spin on zero-value reads.
func (r *Reader) Len(max int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	limit := uint64(MaxLen)
	if max >= 0 && uint64(max) < limit {
		limit = uint64(max)
	}
	if n > limit {
		r.Failf("collection length %d exceeds limit %d", n, limit)
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Tagged value codec (for generic element payloads)
// ---------------------------------------------------------------------------

// Value type tags. Samplers are generic over T; snapshots store each value
// behind a one-byte-equivalent tag so the decoder can verify the dynamic
// type matches the sampler's T.
const (
	tagString  = 1
	tagBytes   = 2
	tagUint64  = 3
	tagInt64   = 4
	tagInt     = 5
	tagFloat64 = 6
	tagBool    = 7
)

// WriteValue encodes a supported dynamic value. Unsupported types latch an
// error: snapshotting is defined for the payload types the serving layer
// and experiments actually stream (strings, byte slices, integers,
// floats, bools).
func WriteValue(w *Writer, v any) {
	switch x := v.(type) {
	case string:
		w.U64(tagString)
		w.String(x)
	case []byte:
		w.U64(tagBytes)
		w.Bytes(x)
	case uint64:
		w.U64(tagUint64)
		w.U64(x)
	case int64:
		w.U64(tagInt64)
		w.I64(x)
	case int:
		w.U64(tagInt)
		w.Int(x)
	case float64:
		w.U64(tagFloat64)
		w.F64(x)
	case bool:
		w.U64(tagBool)
		w.Bool(x)
	default:
		if w.err == nil {
			w.err = fmt.Errorf("snap: unsupported value type %T", v)
		}
	}
}

// ReadValue decodes a tagged value and asserts it has type T.
func ReadValue[T any](r *Reader) T {
	var zero T
	var decoded any
	switch tag := r.U64(); tag {
	case tagString:
		decoded = r.String()
	case tagBytes:
		decoded = r.Bytes()
	case tagUint64:
		decoded = r.U64()
	case tagInt64:
		decoded = r.I64()
	case tagInt:
		decoded = r.Int()
	case tagFloat64:
		decoded = r.F64()
	case tagBool:
		decoded = r.Bool()
	default:
		if r.err == nil {
			r.Failf("bad value tag %d", tag)
		}
		return zero
	}
	if r.err != nil {
		return zero
	}
	out, ok := decoded.(T)
	if !ok {
		r.Failf("value type %T does not match sampler payload %T", decoded, zero)
		return zero
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared structure helpers
// ---------------------------------------------------------------------------

// WriteElement encodes a stream.Element.
func WriteElement[T any](w *Writer, e stream.Element[T]) {
	WriteValue(w, e.Value)
	w.U64(e.Index)
	w.I64(e.TS)
}

// ReadElement decodes a stream.Element.
func ReadElement[T any](r *Reader) stream.Element[T] {
	var e stream.Element[T]
	e.Value = ReadValue[T](r)
	e.Index = r.U64()
	e.TS = r.I64()
	return e
}

// WriteStored encodes a *stream.Stored with a nil marker. The Aux field is
// NOT captured: it is scratch owned by the estimator layer, rebuilt on the
// next query (DESIGN.md §10 documents this).
func WriteStored[T any](w *Writer, st *stream.Stored[T]) {
	if st == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	WriteElement(w, st.Elem)
}

// ReadStored decodes a *stream.Stored (nil-aware; Aux restored as nil).
func ReadStored[T any](r *Reader) *stream.Stored[T] {
	if !r.Bool() {
		return nil
	}
	return &stream.Stored[T]{Elem: ReadElement[T](r)}
}

// WriteRand encodes the full xorshiro state of a generator (nil-aware).
func WriteRand(w *Writer, rng *xrand.Rand) {
	w.Bool(rng != nil)
	if rng != nil {
		WriteRandValue(w, rng)
	}
}

// ReadRand decodes a generator (nil-aware).
func ReadRand(r *Reader) *xrand.Rand {
	if !r.Bool() {
		return nil
	}
	rng := ReadRandValue(r)
	if r.err != nil {
		return nil
	}
	return &rng
}

// WriteRandValue encodes a by-value generator (the weighted skybands embed
// their Rand inline).
func WriteRandValue(w *Writer, rng *xrand.Rand) {
	s0, s1, s2, s3 := rng.State()
	w.U64(s0)
	w.U64(s1)
	w.U64(s2)
	w.U64(s3)
}

// ReadRandValue decodes a by-value generator.
func ReadRandValue(r *Reader) xrand.Rand {
	var rng xrand.Rand
	rng.SetState(r.U64(), r.U64(), r.U64(), r.U64())
	return rng
}
