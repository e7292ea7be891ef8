package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"slidingsample/internal/slab"
	"slidingsample/internal/stream"
)

// The ingest wire codec (DESIGN.md §7 "Ingest batching"): the one place that
// knows the byte shape of a JSON batch body, an NDJSON Record line and a WAL
// line.
//
// Decoding is a recognizer in front of encoding/json. The recognizers accept
// only the canonical form — exact lowercase keys, each at most once; strings
// without escapes, control bytes or invalid UTF-8; numbers in the JSON
// grammar, converted with the same strconv calls encoding/json uses — and
// decline everything else, which then goes through encoding/json unchanged.
// encoding/json therefore stays the single definition of what is accepted,
// of nil versus empty slices, and of every error message; on the inputs a
// recognizer accepts its output is what encoding/json would have produced
// (FuzzIngestDecodeDiff checks exactly that).
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
// Canonical-form recognizers
// ---------------------------------------------------------------------------

// cursor walks one JSON text. Each method consumes a token and reports
// false when the input is not in the canonical form at that point.
type cursor struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (c *cursor) space() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// tok consumes the one-byte token t.
func (c *cursor) tok(t byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == t {
		c.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (c *cursor) end() bool {
	c.space()
	return c.i == len(c.b)
}

// str consumes a string literal and returns its contents, which encoding/json
// would decode to exactly these bytes: no escapes, no control bytes, valid
// UTF-8 (encoding/json rewrites invalid bytes to U+FFFD).
func (c *cursor) str() ([]byte, bool) {
	if !c.tok('"') {
		return nil, false
	}
	start, ascii := c.i, true
	for j := start; j < len(c.b); j++ {
		switch b := c.b[j]; {
		case b == '"':
			s := c.b[start:j]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			c.i = j + 1
			return s, true
		case b == '\\' || b < ' ':
			return nil, false
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number consumes a literal in the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its bytes.
func (c *cursor) number() ([]byte, bool) {
	c.space()
	b, i := c.b, c.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	c.i = i
	return b[start:i], true
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// int64 consumes a number encoding/json would store in an int64.
func (c *cursor) int64() (int64, bool) {
	lit, ok := c.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	return v, err == nil
}

// float64 consumes a number encoding/json would store in a float64.
func (c *cursor) float64() (float64, bool) {
	lit, ok := c.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// array consumes a JSON array, calling elem once per element. It returns the
// element count.
func (c *cursor) array(elem func() bool) (int, bool) {
	if !c.tok('[') {
		return 0, false
	}
	if c.tok(']') {
		return 0, true
	}
	for n := 1; ; n++ {
		if !elem() {
			return 0, false
		}
		if c.tok(']') {
			return n, true
		}
		if !c.tok(',') {
			return 0, false
		}
	}
}

// object consumes a JSON object whose keys are all among keys (exact bytes,
// each at most once), calling field with the key's index to consume its
// value. At most eight keys.
func (c *cursor) object(keys []string, field func(int) bool) bool {
	if !c.tok('{') {
		return false
	}
	if c.tok('}') {
		return true
	}
	var seen uint8
	for {
		k, ok := c.str()
		if !ok || !c.tok(':') {
			return false
		}
		idx := -1
		for i, key := range keys {
			if string(k) == key {
				idx = i
				break
			}
		}
		if idx < 0 || seen&(1<<idx) != 0 || !field(idx) {
			return false
		}
		seen |= 1 << idx
		if c.tok('}') {
			return true
		}
		if !c.tok(',') {
			return false
		}
	}
}

// arrayInto decodes a JSON array into dst from index 0, as encoding/json
// does: a present array overwrites the slice, and an empty one becomes a new
// non-nil empty slice whatever the field held before.
func arrayInto[T any](c *cursor, dst []T, elem func() (T, bool)) ([]T, bool) {
	out := dst[:0]
	n, ok := c.array(func() bool {
		v, ok := elem()
		out = append(out, v)
		return ok
	})
	if n == 0 {
		out = []T{}
	}
	return out, ok
}

var ingestKeys = []string{"values", "timestamps", "weights"}

// parseIngestJSON recognizes a canonical IngestRequest body, decoding into
// req's slices from index 0 as encoding/json does, and reports which
// optional fields the body carried. On a decline it clears whatever it
// wrote into the arriving backing arrays — request scratch arrives zeroed —
// so the fallback starts from exactly what the caller passed in.
func parseIngestJSON(body []byte, req IngestRequest) (IngestRequest, ingestFields, bool) {
	c := cursor{b: body}
	out := req
	var has ingestFields
	ok := c.object(ingestKeys, func(key int) bool {
		var ok bool
		switch key {
		case 0:
			out.Values, ok = arrayInto(&c, out.Values, func() (string, bool) {
				s, ok := c.str()
				return string(s), ok
			})
		case 1:
			out.Timestamps, ok = arrayInto(&c, out.Timestamps, c.int64)
			has.timestamps = true
		default:
			out.Weights, ok = arrayInto(&c, out.Weights, c.float64)
			has.weights = true
		}
		return ok
	})
	if !ok || !c.end() {
		clear(req.Values[:cap(req.Values)])
		clear(req.Timestamps[:cap(req.Timestamps)])
		clear(req.Weights[:cap(req.Weights)])
		return req, ingestFields{}, false
	}
	return out, has, true
}

var recordKeys = []string{"value", "ts", "weight"}

// parseRecord recognizes one canonical Record line (already trimmed): a single
// object and nothing after it.
func parseRecord(line []byte) (wireRecord, bool) {
	c := cursor{b: line}
	var rec wireRecord
	var value []byte
	ok := c.object(recordKeys, func(key int) bool {
		var ok bool
		switch key {
		case 0:
			value, ok = c.str()
		case 1:
			rec.ts, ok = c.int64()
			rec.hasTS = true
		default:
			rec.weight, ok = c.float64()
			rec.hasW = true
		}
		return ok
	})
	if !ok || !c.end() {
		return wireRecord{}, false
	}
	rec.value = string(value)
	return rec, true
}

// ---------------------------------------------------------------------------
// Decoders: recognizer first, encoding/json on a decline
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
// decodes it into req, through the recognizer when it accepts and through
// encoding/json otherwise. A failed read (an oversized body, a broken
// connection) still goes to encoding/json, which sees the same bytes and
// then the same error it would have read itself.
func decodeIngestJSON(r io.Reader, req IngestRequest) (IngestRequest, ingestFields, error) {
	body := bytes.NewBuffer(wireBufs.Get(initialNDJSONBufBytes)[:0])
	defer func() { wireBufs.Put(body.Bytes()) }()
	_, rerr := body.ReadFrom(r)
	if rerr == nil {
		if out, has, ok := parseIngestJSON(body.Bytes(), req); ok {
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

// decodeNDJSONRecord decodes one trimmed, non-empty NDJSON ingest line. The
// fallback reads the first JSON value of the line with unknown fields
// rejected, as the ingest endpoint always has.
func decodeNDJSONRecord(line []byte) (wireRecord, error) {
	if rec, ok := parseRecord(line); ok {
		return rec, nil
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return wireRecord{}, err
	}
	return fromRecord(rec), nil
}

// decodeWALRecord decodes one trimmed, non-empty WAL line; the fallback is
// json.Unmarshal, as WAL replay always has.
func decodeWALRecord(line []byte) (wireRecord, error) {
	if rec, ok := parseRecord(line); ok {
		return rec, nil
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return wireRecord{}, err
	}
	return fromRecord(rec), nil
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

// encodeWALBatch renders one admitted batch as NDJSON Record lines — the
// same wire format the ingest endpoint accepts, so a WAL is replayable with
// nothing but the ordinary ingest path (or curl). Each line's bytes are
// json.Marshal(Record) followed by '\n'; the batch takes one buffer.
func encodeWALBatch(elems []stream.Element[string], weights []float64, withTS bool) ([]byte, error) {
	size := 0
	for i := range elems {
		size += len(elems[i].Value) + walLineOverhead
	}
	buf := make([]byte, 0, size)
	for i := range elems {
		rec := wireRecord{value: elems[i].Value, ts: elems[i].TS, hasTS: withTS}
		if weights != nil {
			rec.weight, rec.hasW = weights[i], true
		}
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
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
