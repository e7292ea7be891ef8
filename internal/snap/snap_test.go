package snap

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, "test.Kind")
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.Int(7)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, snapshot")
	w.Bytes(nil)
	w.Len(3)
	if err := w.err; err != nil {
		t.Fatal(err)
	}

	r, err := newReader(bytes.NewReader(buf.Bytes()), "test.Kind")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := r.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := r.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := r.Len(10); got != 3 {
		t.Errorf("Len = %d", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripTaggedValues(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, "test.Values")
	WriteElement(w, stream.Element[string]{Value: "e", Index: 9, TS: 4})
	WriteStored(w, &stream.Stored[uint64]{Elem: stream.Element[uint64]{Value: 77, Index: 1, TS: 2}})
	WriteStored[uint64](w, nil)
	rng := xrand.New(5)
	rng.Uint64()
	WriteRand(w, rng)
	WriteRand(w, nil)
	if err := w.err; err != nil {
		t.Fatal(err)
	}

	r, err := newReader(bytes.NewReader(buf.Bytes()), "test.Values")
	if err != nil {
		t.Fatal(err)
	}
	if e := ReadElement[string](r); e.Value != "e" || e.Index != 9 || e.TS != 4 {
		t.Errorf("Element = %+v", e)
	}
	if st := ReadStored[uint64](r); st == nil || st.Elem.Value != 77 {
		t.Errorf("Stored = %+v", st)
	}
	if st := ReadStored[uint64](r); st != nil {
		t.Errorf("nil Stored = %+v", st)
	}
	got := ReadRand(r)
	if got == nil || got.Uint64() != rng.Uint64() {
		t.Error("restored rng diverged from original")
	}
	if nr := ReadRand(r); nr != nil {
		t.Error("nil rng round-trip produced a rng")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, "test.A")
	w.U64(1)
	if err := w.err; err != nil {
		t.Fatal(err)
	}
	if _, err := newReader(bytes.NewReader(buf.Bytes()), "test.B"); !errors.Is(err, ErrFormat) {
		t.Errorf("kind mismatch error = %v, want ErrFormat", err)
	}
	bad := bytes.Clone(buf.Bytes())
	bad[0] = 'X'
	if _, err := newReader(bytes.NewReader(bad), "test.A"); !errors.Is(err, ErrFormat) {
		t.Errorf("magic mismatch error = %v, want ErrFormat", err)
	}
	bad = bytes.Clone(buf.Bytes())
	bad[4], bad[5] = 0xFE, 0xCA
	if _, err := newReader(bytes.NewReader(bad), "test.A"); !errors.Is(err, ErrFormat) {
		t.Errorf("version mismatch error = %v, want ErrFormat", err)
	}
}

func TestStickyError(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, "test.Sticky")
	w.U64(1)
	if err := w.err; err != nil {
		t.Fatal(err)
	}
	r, err := newReader(bytes.NewReader(buf.Bytes()), "test.Sticky")
	if err != nil {
		t.Fatal(err)
	}
	r.U64()
	r.U64() // past the end: latches an error
	first := r.Err()
	if first == nil {
		t.Fatal("read past end did not error")
	}
	if got := r.U64(); got != 0 {
		t.Errorf("read after latched error = %d, want 0", got)
	}
	if r.Err() != first {
		t.Errorf("latched error changed: %v -> %v", first, r.Err())
	}
}

func TestLimits(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, "test.Limits")
	w.U64(uint64(MaxLen) + 1)
	w.U64(uint64(MaxString) + 1)
	if err := w.err; err != nil {
		t.Fatal(err)
	}
	r, err := newReader(bytes.NewReader(buf.Bytes()), "test.Limits")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(-1); got != 0 || !errors.Is(r.Err(), ErrFormat) {
		t.Errorf("oversized Len = %d, err %v", got, r.Err())
	}
	r2, err := newReader(bytes.NewReader(buf.Bytes()), "test.Limits")
	if err != nil {
		t.Fatal(err)
	}
	r2.U64()
	if got := r2.Bytes(); got != nil || !errors.Is(r2.Err(), ErrFormat) {
		t.Errorf("oversized Bytes = %v, err %v", got, r2.Err())
	}
	// A bounded Len enforces the caller's tighter max too.
	var buf3 bytes.Buffer
	w3 := newWriter(&buf3, "test.Limits")
	w3.Len(11)
	r3, err := newReader(bytes.NewReader(buf3.Bytes()), "test.Limits")
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.Len(10); got != 0 || !errors.Is(r3.Err(), ErrFormat) {
		t.Errorf("over-max Len = %d, err %v", got, r3.Err())
	}
}

func TestCapHint(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-5, 0}, {0, 0}, {17, 17}, {4096, 4096}, {4097, 4096}, {MaxLen, 4096},
	} {
		if got := CapHint(tc.in); got != tc.want {
			t.Errorf("CapHint(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestNestedSnapshots pins the property the sharded dispatchers rely on:
// a full self-headed snapshot embedded inside an enclosing stream reads
// back without consuming a byte past its own end.
func TestNestedSnapshots(t *testing.T) {
	var buf bytes.Buffer
	outer := newWriter(&buf, "test.Outer")
	outer.U64(1)
	inner := newWriter(&buf, "test.Inner")
	inner.String("inner body")
	outer.U64(2)
	if err := outer.err; err != nil {
		t.Fatal(err)
	}
	if err := inner.err; err != nil {
		t.Fatal(err)
	}

	src := bytes.NewReader(buf.Bytes())
	or, err := newReader(src, "test.Outer")
	if err != nil {
		t.Fatal(err)
	}
	if got := or.U64(); got != 1 {
		t.Fatalf("outer pre-field = %d", got)
	}
	ir, err := newReader(src, "test.Inner")
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.String(); got != "inner body" {
		t.Fatalf("inner body = %q", got)
	}
	if got := or.U64(); got != 2 {
		t.Fatalf("outer post-field = %d", got)
	}
	if or.Err() != nil || ir.Err() != nil {
		t.Fatalf("nested round-trip errors: %v / %v", or.Err(), ir.Err())
	}
}

func TestErrorfWrapsFormat(t *testing.T) {
	err := Errorf("bad thing %d", 7)
	if !errors.Is(err, ErrFormat) {
		t.Errorf("Errorf does not wrap ErrFormat: %v", err)
	}
	if !strings.Contains(err.Error(), "bad thing 7") {
		t.Errorf("Errorf lost its message: %v", err)
	}
}

// TestSaveRestore pins the skeleton every snapshot kind goes through: the
// body round-trips, a header mismatch never reaches the decoder, and a
// decoder's refusal comes back as Restore's error with the zero value.
func TestSaveRestore(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, "test.Pair", [2]int{3, -4}, func(w *Writer, p [2]int) {
		w.Int(p[0])
		w.Int(p[1])
	}); err != nil {
		t.Fatal(err)
	}
	decode := func(r *Reader) *[2]int {
		p := &[2]int{r.Int(), r.Int()}
		if r.Err() == nil && p[0] < 0 {
			r.Failf("pair with first %d", p[0])
		}
		return p
	}
	got, err := Restore(bytes.NewReader(buf.Bytes()), "test.Pair", decode)
	if err != nil || *got != [2]int{3, -4} {
		t.Fatalf("Restore = %v, %v", got, err)
	}

	called := false
	if _, err := Restore(bytes.NewReader(buf.Bytes()), "test.Other", func(r *Reader) int {
		called = true
		return 0
	}); !errors.Is(err, ErrFormat) || called {
		t.Errorf("kind mismatch: err %v, decoder called %v", err, called)
	}

	var neg bytes.Buffer
	if err := Save(&neg, "test.Pair", -1, (*Writer).Int); err != nil {
		t.Fatal(err)
	}
	neg.Write(make([]byte, 8))
	got, err = Restore(bytes.NewReader(neg.Bytes()), "test.Pair", decode)
	if got != nil || !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "pair with first -1") {
		t.Errorf("refused body: Restore = %v, %v", got, err)
	}

	if got, err := Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), "test.Pair", decode); got != nil || !errors.Is(err, ErrFormat) {
		t.Errorf("truncated body: Restore = %v, %v", got, err)
	}
}
