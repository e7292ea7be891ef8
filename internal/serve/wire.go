package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"slidingsample/internal/slab"
	"slidingsample/internal/stream"
)

// The ingest wire codec (DESIGN.md §7 "Ingest batching"): the one place that
// knows the byte shape of a JSON batch body, an NDJSON Record line and a WAL
// line.
//
// Decoding is one recognizer in front of encoding/json. It reads the compact
// form — the bytes appendRecord writes to the WAL, and what swperf sends —
// in one straight pass, taking only strings without escapes, control bytes
// or invalid UTF-8, and numbers in the JSON grammar, converted as
// encoding/json converts them. At the first byte that does not fit it
// declines, and the input goes through encoding/json unchanged.
// encoding/json therefore stays the single definition of what is accepted,
// of nil versus empty slices, of float bits and of every error message; on
// the inputs the recognizer accepts its output is what encoding/json would
// have produced (FuzzIngestDecodeDiff checks exactly that).
//
// Every decoded string is its own copy (string(b)), never a substring of the
// request body or of a shared buffer: a sample can retain one value for the
// lifetime of a window, and a substring would pin its whole request body.

// wireRecord is a Record without the pointer indirections: what a recognized
// NDJSON or WAL line decodes to and what a WAL line is encoded from.
type wireRecord struct {
	value       string
	ts          int64
	weight      float64
	hasTS, hasW bool
}

// wireBufs recycles the request read buffers: the NDJSON scanner's line
// buffer and the JSON body buffer. Buffers that grew past the NDJSON line
// bound are dropped rather than pooled.
var wireBufs = slab.NewSlicePool[byte](maxNDJSONLineBytes)

// ---------------------------------------------------------------------------
// The compact-form recognizer
// ---------------------------------------------------------------------------

// The compact form is a JSON text with no whitespace inside it, exact
// lowercase keys, each at most once, in one order:
// {"value":"…"[,"ts":N][,"weight":N]} for a Record line and
// {"values":[…][,"timestamps":[…]][,"weights":[…]]} for a batch body. An
// integral literal of at most 15 digits (18 for an int64) converts exactly
// in the digit loop; -0, fractions, exponents and longer literals go
// through strconv as encoding/json's do. The keys are compared as inline
// constants, not through a helper taking the key, which the compiler would
// turn into a memequal call per key.

// digitRun reads -?[0-9]* at b[i:] and returns its magnitude (exact up to
// 19 digits), its sign, its digit count and its end. A run the JSON grammar
// refuses as an integer part, empty or with a leading zero, counts 0
// digits.
func digitRun(b []byte, i int) (u uint64, neg bool, n, end int) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	d := i
	for i < len(b) && isDigit(b[i]) {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	if n = i - d; n > 1 && b[d] == '0' {
		n = 0
	}
	return u, neg, n, i
}

// compactInt reads an int64 literal at b[i:] and returns the index after
// it. A fraction or an exponent is left for the caller's delimiter check,
// which declines it.
func compactInt(b []byte, i int) (int64, int, bool) {
	u, neg, n, end := digitRun(b, i)
	switch {
	case n == 0:
		return 0, 0, false
	case n > 18:
		v, err := strconv.ParseInt(string(b[i:end]), 10, 64)
		return v, end, err == nil
	case neg:
		return -int64(u), end, true
	}
	return int64(u), end, true
}

// compactFloat reads a float64 literal at b[i:] and returns the index after
// it. An integer of at most 15 digits is below 2^53, so its float64 is
// exact and equals what strconv.ParseFloat rounds it to; -0 keeps strconv
// for its sign bit.
func compactFloat(b []byte, i int) (float64, int, bool) {
	u, neg, n, end := digitRun(b, i)
	if n == 0 {
		return 0, 0, false
	}
	if n <= 15 && !(neg && u == 0) && (end == len(b) || b[end] != '.' && b[end] != 'e' && b[end] != 'E') {
		if neg {
			return -float64(u), end, true
		}
		return float64(u), end, true
	}
	end, ok := scanNumber(b, i)
	if !ok {
		return 0, 0, false
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// compactValue reads a string literal at b[i:] into its own copy.
func compactValue(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", 0, false
	}
	s, next, ok := scanString(b, i+1)
	return string(s), next, ok
}

// compactArray reads the array whose '[' is b[i-1] into dst from index 0 and
// returns the index after its ']'. Like encoding/json, an empty array
// becomes a new non-nil empty slice whatever dst held.
func compactArray[T any](b []byte, i int, dst []T, elem func([]byte, int) (T, int, bool)) ([]T, int, bool) {
	if i < len(b) && b[i] == ']' {
		return []T{}, i + 1, true
	}
	out := dst[:0]
	for {
		v, next, ok := elem(b, i)
		if !ok || next == len(b) {
			return nil, 0, false
		}
		out = append(out, v)
		switch b[next] {
		case ',':
			i = next + 1
		case ']':
			return out, next + 1, true
		default:
			return nil, 0, false
		}
	}
}

// compactIngestJSON recognizes a compact IngestRequest body, decoding into
// req's slices from index 0 as encoding/json does, and reports which
// optional fields the body carried. JSON whitespace around the object is
// skipped (Go's json.Encoder ends every value it writes with a newline);
// other bytes around it, Unicode spaces included, decline, as encoding/json
// refuses them. On a decline it clears whatever it wrote into the
// arriving backing arrays — request scratch arrives zeroed — so the
// fallback starts from exactly what the caller passed in.
func compactIngestJSON(body []byte, req IngestRequest) (IngestRequest, ingestFields, bool) {
	const valuesKey, tsKey, weightsKey = `{"values":[`, `,"timestamps":[`, `,"weights":[`
	body = bytes.Trim(body, " \t\r\n")
	if len(body) < len(valuesKey) || string(body[:len(valuesKey)]) != valuesKey {
		return req, ingestFields{}, false
	}
	out := req
	var has ingestFields
	var i int
	var ok bool
	out.Values, i, ok = compactArray(body, len(valuesKey), out.Values, compactValue)
	if ok && len(body)-i > len(tsKey) && string(body[i:i+len(tsKey)]) == tsKey {
		out.Timestamps, i, ok = compactArray(body, i+len(tsKey), out.Timestamps, compactInt)
		has.timestamps = true
	}
	if ok && len(body)-i > len(weightsKey) && string(body[i:i+len(weightsKey)]) == weightsKey {
		out.Weights, i, ok = compactArray(body, i+len(weightsKey), out.Weights, compactFloat)
		has.weights = true
	}
	if !ok || i != len(body)-1 || body[i] != '}' {
		clear(req.Values[:cap(req.Values)])
		clear(req.Timestamps[:cap(req.Timestamps)])
		clear(req.Weights[:cap(req.Weights)])
		return req, ingestFields{}, false
	}
	return out, has, true
}

// compactRecord recognizes one trimmed compact Record line; it writes *rec
// only when it accepts.
func compactRecord(line []byte, rec *wireRecord) bool {
	const valueKey, tsKey, weightKey = `{"value":"`, `,"ts":`, `,"weight":`
	if len(line) < len(valueKey) || string(line[:len(valueKey)]) != valueKey {
		return false
	}
	value, i, ok := scanString(line, len(valueKey))
	var r wireRecord
	if ok && len(line)-i > len(tsKey) && string(line[i:i+len(tsKey)]) == tsKey {
		r.ts, i, ok = compactInt(line, i+len(tsKey))
		r.hasTS = true
	}
	if ok && len(line)-i > len(weightKey) && string(line[i:i+len(weightKey)]) == weightKey {
		r.weight, i, ok = compactFloat(line, i+len(weightKey))
		r.hasW = true
	}
	if !ok || i != len(line)-1 || line[i] != '}' {
		return false
	}
	r.value = string(value)
	*rec = r
	return true
}

// scanString reads the string literal whose opening quote is b[i-1] and
// returns its contents and the index after its closing quote. It takes only
// contents encoding/json would decode to exactly these bytes: no escapes, no
// control bytes, valid UTF-8 (encoding/json rewrites invalid bytes to
// U+FFFD).
func scanString(b []byte, i int) ([]byte, int, bool) {
	start := i
	ascii := true
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := b[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, 0, false
			}
			return s, i + 1, true
		case c == '\\' || c < ' ':
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// scanNumber reads a literal in the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at b[i:] and returns the
// index after it.
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = digits(b, i)
	}
	return i, true
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// ---------------------------------------------------------------------------
// Decoders: the compact form, then encoding/json
// ---------------------------------------------------------------------------

// decodeJSONFrom is the encoding/json body decode every JSON endpoint shares:
// one object, unknown fields rejected, nothing after it.
func decodeJSONFrom(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	// A trailing second JSON value is a malformed batch, not a stream.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("serve: bad request body: trailing data after the JSON object")
	}
	return nil
}

// decodeIngestJSON reads a whole JSON batch body into a pooled buffer and
// decodes it into req, through the compact-form recognizer when it accepts
// and through encoding/json otherwise. A body over the read cap is that error, whatever
// it holds (413). Any other failed read (a broken connection) still goes to
// encoding/json, which sees the same bytes and then the same error it would
// have read itself.
func decodeIngestJSON(r io.Reader, req IngestRequest) (IngestRequest, ingestFields, error) {
	body := bytes.NewBuffer(wireBufs.Get(initialNDJSONBufBytes)[:0])
	defer func() { wireBufs.Put(body.Bytes()) }()
	_, rerr := body.ReadFrom(r)
	if tooLarge(rerr) {
		return req, ingestFields{}, fmt.Errorf("serve: bad request body: %w", rerr)
	}
	if rerr == nil {
		if out, has, ok := compactIngestJSON(body.Bytes(), req); ok {
			return out, has, nil
		}
		rerr = io.EOF
	}
	if err := decodeJSONFrom(&replay{buf: body.Bytes(), err: rerr}, &req); err != nil {
		return req, ingestFields{}, err
	}
	// Decoded into recycled slices, an absent field and an empty one both
	// come out non-nil and empty; a second decode from the zero request
	// tells them apart by encoding/json's own rules (null is absent too).
	// It cannot fail: the same bytes just decoded without error.
	var zero IngestRequest
	_ = decodeJSONFrom(bytes.NewReader(body.Bytes()), &zero)
	return req, ingestFields{timestamps: zero.Timestamps != nil, weights: zero.Weights != nil}, nil
}

// tooLarge reports whether err is http.MaxBytesReader's over-the-cap error.
func tooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// replay re-serves bytes already read, then the error that ended the read.
type replay struct {
	buf []byte
	err error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		return 0, r.err
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// decodeNDJSONRecord decodes one trimmed, non-empty NDJSON ingest line into
// *rec, which an error leaves as it was. The fallback reads the first JSON
// value of the line with unknown fields rejected, as the ingest endpoint
// always has.
func decodeNDJSONRecord(line []byte, rec *wireRecord) error {
	if compactRecord(line, rec) {
		return nil
	}
	var r Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return err
	}
	*rec = fromRecord(r)
	return nil
}

// decodeWALRecord decodes one trimmed, non-empty WAL line into *rec, which
// an error leaves as it was; the fallback is json.Unmarshal, as WAL replay
// always has.
func decodeWALRecord(line []byte, rec *wireRecord) error {
	if compactRecord(line, rec) {
		return nil
	}
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	*rec = fromRecord(r)
	return nil
}

func fromRecord(r Record) wireRecord {
	w := wireRecord{value: r.Value, hasTS: r.TS != nil, hasW: r.Weight != nil}
	if w.hasTS {
		w.ts = *r.TS
	}
	if w.hasW {
		w.weight = *r.Weight
	}
	return w
}

// ---------------------------------------------------------------------------
// WAL encoder
// ---------------------------------------------------------------------------

// walLineOverhead bounds what a WAL line adds to its value's bytes: keys,
// punctuation, the longest int64 and float64 renderings and the newline.
// Only escapes can outgrow it, and append then grows the buffer.
const walLineOverhead = len(`{"value":"","ts":-9223372036854775808,"weight":-2.2250738585072014e-308}`) + 1

// walBufs recycles the WAL encoder's batch buffers; the admission path puts
// each back once the append returned.
var walBufs = slab.NewSlicePool[byte](maxNDJSONLineBytes)

// encodeWALBatch renders one admitted batch as NDJSON Record lines — the
// same wire format the ingest endpoint accepts, so a WAL is replayable with
// nothing but the ordinary ingest path (or curl). Each line's bytes are
// json.Marshal(Record) followed by '\n'; the batch takes one buffer from
// walBufs, which the caller puts back after the append.
func encodeWALBatch(elems []stream.Element[string], weights []float64, withTS bool) ([]byte, error) {
	size := 0
	for i := range elems {
		size += len(elems[i].Value) + walLineOverhead
	}
	// A recycled buffer too small for this batch grows by append's rule,
	// leaving headroom for the next one.
	buf := slices.Grow(walBufs.Get(0), size)
	for i := range elems {
		rec := wireRecord{value: elems[i].Value, ts: elems[i].TS, hasTS: withTS}
		if weights != nil {
			rec.weight, rec.hasW = weights[i], true
		}
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
			walBufs.Put(buf)
			return nil, fmt.Errorf("serve: wal encode: %w", err)
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// appendRecord appends json.Marshal(Record) for rec. A non-finite weight is
// the one input json.Marshal refuses; its own error is returned.
func appendRecord(dst []byte, rec wireRecord) ([]byte, error) {
	if rec.hasW && (math.IsInf(rec.weight, 0) || math.IsNaN(rec.weight)) {
		_, err := json.Marshal(rec.weight)
		return dst, err
	}
	dst = append(dst, `{"value":`...)
	dst = appendJSONString(dst, rec.value)
	if rec.hasTS {
		dst = append(dst, `,"ts":`...)
		dst = strconv.AppendInt(dst, rec.ts, 10)
	}
	if rec.hasW {
		dst = append(dst, `,"weight":`...)
		dst = appendJSONFloat(dst, rec.weight)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat is encoding/json's float64 rendering: the shortest
// round-trip digits, in exponent form below 1e-6 or from 1e21 up, with a
// one-digit negative exponent left unpadded. An integral weight in
// [1, 2^53), the common case, has its decimal digits as those shortest
// digits, so it skips the float formatter.
func appendJSONFloat(dst []byte, f float64) []byte {
	if f >= 1 && f < 1<<53 && f == math.Trunc(f) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString is encoding/json's string rendering with HTML escaping:
// quote and backslash backslash-escaped, control bytes escaped (\b \f \n
// \r \t short, the rest as \u00XX), the HTML bytes <, > and & as \u00XX,
// each invalid UTF-8 byte as the escaped replacement character \ufffd, and
// the JavaScript line terminators U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
