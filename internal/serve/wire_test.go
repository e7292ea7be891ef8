package serve

// Byte-identity battery for the ingest wire codec (wire.go). encoding/json
// is the oracle throughout: whenever a recognizer accepts an input its
// output must be what encoding/json decodes, and the WAL encoder's bytes
// must be what json.Marshal(Record) writes. The end-to-end comparisons run
// the whole decode path — recognizer plus fallback — against the
// encoding/json-only decoders the endpoints used before the codec, error
// messages included. Explore beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzIngestDecodeDiff ./internal/serve/
//	go test -run '^$' -fuzz FuzzWALRecordDiff ./internal/serve/

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"slidingsample/internal/stream"
)

// refDecodeIngestJSON is the JSON batch decode with encoding/json alone.
func refDecodeIngestJSON(body []byte, req IngestRequest) (IngestRequest, error) {
	err := decodeJSONFrom(bytes.NewReader(body), &req)
	return req, err
}

// refParseNDJSON is the NDJSON batch decode with encoding/json alone: one
// fresh json.Decoder per trimmed line.
func refParseNDJSON(body []byte, req IngestRequest) (IngestRequest, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, initialNDJSONBufBytes), maxNDJSONLineBytes)
	line := 0
	var hasTS, hasW bool
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		line++
		if raw == "" {
			continue
		}
		var rec Record
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return req, fmt.Errorf("serve: bad NDJSON record on line %d: %w", line, err)
		}
		if len(req.Values) == 0 {
			hasTS, hasW = rec.TS != nil, rec.Weight != nil
		} else {
			if (rec.TS != nil) != hasTS {
				return req, fmt.Errorf("serve: ragged NDJSON batch: line %d switches ts presence", line)
			}
			if (rec.Weight != nil) != hasW {
				return req, fmt.Errorf("serve: ragged NDJSON batch: line %d switches weight presence", line)
			}
		}
		req.Values = append(req.Values, rec.Value)
		if rec.TS != nil {
			req.Timestamps = append(req.Timestamps, *rec.TS)
		}
		if rec.Weight != nil {
			req.Weights = append(req.Weights, *rec.Weight)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return req, fmt.Errorf("%w (%d bytes; split the batch or use the JSON body)", ErrLineTooLong, maxNDJSONLineBytes)
		}
		return req, fmt.Errorf("serve: bad NDJSON body: %w", err)
	}
	return req, nil
}

// scratchRequest returns the request slices a handler starts from: the
// zero value on the named-instance path, zeroed recycled scratch with spare
// capacity on the tenant path.
func scratchRequest(recycled bool) IngestRequest {
	if !recycled {
		return IngestRequest{}
	}
	return IngestRequest{
		Values:     make([]string, 0, 4),
		Timestamps: make([]int64, 0, 4),
		Weights:    make([]float64, 0, 4),
	}
}

// sameSlice compares two decoded slices the way a handler can tell them
// apart: nil-ness, length and elements (floats by bit pattern).
func sameSlice[T comparable](a, b []T, eq func(x, y T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqComparable[T comparable](x, y T) bool { return x == y }

func eqFloatBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameRequest(a, b IngestRequest) bool {
	return sameSlice(a.Values, b.Values, eqComparable[string]) &&
		sameSlice(a.Timestamps, b.Timestamps, eqComparable[int64]) &&
		sameSlice(a.Weights, b.Weights, eqFloatBits)
}

// fieldsOf reads field presence off a request decoded from the zero value,
// the named ingest route's rule.
func fieldsOf(req IngestRequest) ingestFields {
	return ingestFields{timestamps: req.Timestamps != nil, weights: req.Weights != nil}
}

func sameRecord(a, b wireRecord) bool {
	return a.value == b.value && a.hasTS == b.hasTS && a.ts == b.ts &&
		a.hasW == b.hasW && eqFloatBits(a.weight, b.weight)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// ingestDiffCorpus seeds FuzzIngestDecodeDiff: canonical bodies the
// recognizers must take, and near misses they must hand to encoding/json.
var ingestDiffCorpus = []string{
	`{"values":["a","b"],"timestamps":[1,2],"weights":[0.5,2]}`,
	` { "values" : [ "a" , "b" ] , "weights" : [ 1e3 , -0 ] } ` + "\n",
	`{"weights":[1.5E-7,1e21,123456789012345678901234567890],"values":["x","y","z"]}`,
	`{"values":[],"timestamps":[],"weights":[]}`,
	`{"values":["héllo","日本"],"timestamps":[-9223372036854775808,9223372036854775807]}`,
	`{}`,
	`{"values":null}`,
	`{"values":["a"],"values":["b","c"]}`,
	`{"Values":["a"]}`,
	`{"values":["a\"b","c\\d","é"]}`,
	`{"values":["a"],"timestamps":[1.0]}`,
	`{"values":["a"],"timestamps":[9223372036854775808]}`,
	`{"values":["a"],"weights":[1e400]}`,
	`{"values":["a"],"weights":[01]}`,
	`{"values":["a",]}`,
	`{"values":["a"]} {"values":["b"]}`,
	`{"values":["a"],"bogus":1}`,
	"{\"values\":[\"\xff\"]}",
	"{\"values\":[\"a\tb\"]}",
	`{"value":"a","ts":1,"weight":2}` + "\n" + `{"value":"b","ts":2,"weight":0.25}`,
	`{"value":"a"}` + "\r\n\n" + ` {"value":""} `,
	`{"value":"a","ts":1}` + "\n" + `{"value":"b"}`,
	`{"value":"a","ts":null}`,
	`{"value":"a","ts":1} trailing`,
	`{"value":"a","value":"b"}`,
	`{"Value":"a","TS":3}`,
	`{"value":" "}`,
	`not-json`,
}

// FuzzIngestDecodeDiff: on every input the JSON body decode and the NDJSON
// decode (recognizer plus fallback) give exactly what the encoding/json-only
// decoders give — values, nil-ness, float bits, or the same error — from
// fresh and from recycled request slices; and whenever a recognizer
// accepts a body or a line, encoding/json accepts it with the same result.
func FuzzIngestDecodeDiff(f *testing.F) {
	for _, s := range ingestDiffCorpus {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, recycled bool) {
		// JSON batch body.
		want, werr := refDecodeIngestJSON(body, scratchRequest(recycled))
		if got, _, ok := parseIngestJSON(body, scratchRequest(recycled)); ok {
			if werr != nil {
				t.Fatalf("recognizer accepted a body encoding/json rejects (%v): %q", werr, body)
			}
			if !sameRequest(got, want) {
				t.Fatalf("recognizer decoded %#v, encoding/json %#v: %q", got, want, body)
			}
		}
		got, has, gerr := decodeIngestJSON(bytes.NewReader(body), scratchRequest(recycled))
		if errText(gerr) != errText(werr) || (werr == nil && !sameRequest(got, want)) {
			t.Fatalf("JSON decode: got %#v, %v; want %#v, %v: %q", got, gerr, want, werr, body)
		}
		if zero, _ := refDecodeIngestJSON(body, IngestRequest{}); werr == nil && has != fieldsOf(zero) {
			t.Fatalf("JSON decode reports fields %+v, encoding/json from the zero request decodes %+v: %q", has, fieldsOf(zero), body)
		}

		// NDJSON: each line through the recognizer, then the whole body.
		for _, line := range bytes.Split(body, []byte("\n")) {
			raw := bytes.TrimSpace(line)
			rec, ok := parseRecord(raw)
			if !ok {
				continue
			}
			var ref Record
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ref); err != nil {
				t.Fatalf("recognizer accepted a line encoding/json rejects (%v): %q", err, raw)
			}
			if !sameRecord(rec, fromRecord(ref)) {
				t.Fatalf("recognizer decoded %+v, encoding/json %+v: %q", rec, fromRecord(ref), raw)
			}
			var un Record
			if err := json.Unmarshal(raw, &un); err != nil || !sameRecord(rec, fromRecord(un)) {
				t.Fatalf("recognizer decoded %+v, json.Unmarshal %+v (%v): %q", rec, fromRecord(un), err, raw)
			}
		}
		want, werr = refParseNDJSON(body, scratchRequest(recycled))
		got, has, gerr = parseNDJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), scratchRequest(recycled))
		if errText(gerr) != errText(werr) || (werr == nil && !sameRequest(got, want)) {
			t.Fatalf("NDJSON decode: got %#v, %v; want %#v, %v: %q", got, gerr, want, werr, body)
		}
		if zero, _ := refParseNDJSON(body, IngestRequest{}); werr == nil && has != fieldsOf(zero) {
			t.Fatalf("NDJSON decode reports fields %+v, encoding/json from the zero request decodes %+v: %q", has, fieldsOf(zero), body)
		}
	})
}

// TestRecognizersTakeCanonicalInput pins that the canonical shapes really
// ride the fast path (a recognizer that declined everything would pass the
// diff fuzzer trivially), and that a decline leaves recycled scratch as it
// arrived: zeroed.
func TestRecognizersTakeCanonicalInput(t *testing.T) {
	for _, body := range []string{
		`{"values":["a","b"],"timestamps":[1,2],"weights":[0.5,2]}`,
		` { "values" : [ "a" ] , "weights" : [ 1e3 ] } `,
		`{"values":[],"timestamps":[]}`,
		`{"values":["héllo"]}`,
		`{}`,
	} {
		if _, _, ok := parseIngestJSON([]byte(body), IngestRequest{}); !ok {
			t.Errorf("canonical body declined: %s", body)
		}
	}
	for _, line := range []string{
		`{"value":"a","ts":1,"weight":2}`,
		`{"weight":0.25,"value":"日本"}`,
		`{"value":""}`,
		`{}`,
	} {
		if _, ok := parseRecord([]byte(line)); !ok {
			t.Errorf("canonical line declined: %s", line)
		}
	}
	for _, body := range []string{
		`{"values":["a","b"],"values":["c"]}`,
		`{"values":["a","b"],"timestamps":[1,null]}`,
		`{"values":["a","b","c","d","e","f"],"Weights":[1]}`,
	} {
		req := scratchRequest(true)
		if _, _, ok := parseIngestJSON([]byte(body), req); ok {
			t.Fatalf("non-canonical body accepted: %s", body)
		}
		for _, v := range req.Values[:cap(req.Values)] {
			if v != "" {
				t.Fatalf("declined body left %q in recycled scratch: %s", v, body)
			}
		}
		for _, ts := range req.Timestamps[:cap(req.Timestamps)] {
			if ts != 0 {
				t.Fatalf("declined body left %d in recycled scratch: %s", ts, body)
			}
		}
	}
}

// TestDecodedValuesAreCopies: a decoded value must not share memory with the
// request buffer, or a retained sample would pin the whole body.
func TestDecodedValuesAreCopies(t *testing.T) {
	body := []byte(`{"values":["aaaa","bbbb"]}`)
	got, _, ok := parseIngestJSON(body, IngestRequest{})
	if !ok {
		t.Fatal("canonical body declined")
	}
	line := []byte(`{"value":"cccc"}`)
	rec, ok := parseRecord(line)
	if !ok {
		t.Fatal("canonical line declined")
	}
	for i := range body {
		body[i] = 'x'
	}
	for i := range line {
		line[i] = 'x'
	}
	if got.Values[0] != "aaaa" || got.Values[1] != "bbbb" || rec.value != "cccc" {
		t.Fatalf("decoded values alias their input: %q %q", got.Values, rec.value)
	}
}

// TestNDJSONDecodeAllocs pins the fast path's allocation budget: one string
// per record plus O(log n) slice growth and O(1) request overhead — where
// encoding/json spent about eleven allocations per record.
func TestNDJSONDecodeAllocs(t *testing.T) {
	const records = 1000
	var b bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, `{"value":"k%d","ts":%d,"weight":%d}`+"\n", i, i/10, i%9+1)
	}
	body := b.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		if _, _, err := parseNDJSON(req, IngestRequest{}); err != nil {
			t.Fatal(err)
		}
	})
	// httptest.NewRequest itself costs a few dozen allocations.
	if allocs > records+100 {
		t.Fatalf("NDJSON decode of %d records: %.0f allocs, want at most %d", records, allocs, records+100)
	}
}

// walRecordCorpus seeds FuzzWALRecordDiff with every escaping class.
var walRecordCorpus = []string{
	"plain", "", "with space", `quote"back\slash`, "<tag>&amp;", "ctl\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "héllo 日本", "  ", "bad\xffutf8\xc3", "\xed\xa0\x80",
}

// FuzzWALRecordDiff: the WAL encoder writes json.Marshal(Record) byte for
// byte — for every value, with and without ts and weight, float formatting
// included — refuses exactly the weights json.Marshal refuses, and what it
// writes decodes back to the record encoding/json decodes.
func FuzzWALRecordDiff(f *testing.F) {
	weights := []float64{1, 0.5, 2.5e-7, 1e-6, 1e21, 123456789, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	for i, v := range walRecordCorpus {
		f.Add(v, int64(i)-5, i%2 == 0, weights[i%len(weights)], i%3 != 0)
	}
	// Both sides of the integral fast path's [1, 2^53) range.
	for i, w := range []float64{7, 1<<53 - 1, 1 << 53, 1 - 0x1p-53, -3} {
		f.Add("plain", int64(i), false, w, true)
	}
	f.Fuzz(func(t *testing.T, value string, ts int64, hasTS bool, weight float64, hasW bool) {
		rec := wireRecord{value: value, ts: ts, hasTS: hasTS, weight: weight, hasW: hasW}
		ref := Record{Value: value}
		if hasTS {
			ref.TS = &ts
		}
		if hasW {
			ref.Weight = &weight
		}
		want, werr := json.Marshal(ref)
		got, gerr := appendRecord(nil, rec)
		if errText(gerr) != errText(werr) {
			t.Fatalf("encode error %v, json.Marshal %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded %s, json.Marshal %s", got, want)
		}
		elems := []stream.Element[string]{{Value: value, TS: ts}}
		var ws []float64
		if hasW {
			ws = []float64{weight}
		}
		batch, err := encodeWALBatch(elems, ws, hasTS)
		if err != nil || !bytes.Equal(batch, append(want, '\n')) {
			t.Fatalf("encodeWALBatch %q (%v), want %q", batch, err, append(want, '\n'))
		}
		var back Record
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("json.Unmarshal of its own output: %v", err)
		}
		dec, err := decodeWALRecord(got)
		if err != nil || !sameRecord(dec, fromRecord(back)) {
			t.Fatalf("decodeWALRecord %+v (%v), encoding/json %+v", dec, err, fromRecord(back))
		}
	})
}
