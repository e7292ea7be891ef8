package serve

// Network-decoder fuzzing at the handler: whatever bytes arrive at an
// ingest endpoint, the answer is either a 2xx with the sampler advanced by
// exactly the batch, or a 4xx with the sampler untouched — never a 5xx,
// never a panic. A fabric tenant built from the same template must answer
// the same bytes with the same status and body (DESIGN.md §9: a tenant
// behaves like a solo named instance). Explore beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzIngestHandler ./internal/serve/

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzIngestTargets are the two sampler shapes the handler fuzzer drives: a
// sequence window and a timestamp window, both taking explicit weights so
// every field of the wire format can reach a substrate.
var fuzzIngestTargets = []Spec{
	{Mode: "seq", Sampler: "weighted-wor", N: 64, K: 4, Seed: 31},
	{Mode: "ts", Sampler: "weighted-ts-wor", T0: 60, K: 4, Seed: 32},
}

// serveRecorded sends one request through the handler in process.
func serveRecorded(s *Server, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// postIngest sends one ingest body through the handler in process.
func postIngest(s *Server, name string, ndjson bool, body []byte) *httptest.ResponseRecorder {
	return postIngestTo(s, "/ingest/"+name, ndjson, body)
}

// postIngestTo sends one ingest body to an ingest route in process.
func postIngestTo(s *Server, path string, ndjson bool, body []byte) *httptest.ResponseRecorder {
	contentType := "application/json"
	if ndjson {
		contentType = "application/x-ndjson"
	}
	return serveRecorded(s, http.MethodPost, path, contentType, body)
}

func FuzzIngestHandler(f *testing.F) {
	for _, tc := range malformedBatchCases {
		f.Add([]byte(tc.body), tc.ct == "application/x-ndjson", tc.target != "/ingest/seq")
	}
	for _, body := range ingestDiffCorpus {
		for _, timed := range []bool{false, true} {
			f.Add([]byte(body), strings.Contains(body, `"value"`), timed)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, ndjson, timed bool) {
		spec := fuzzIngestTargets[0]
		if timed {
			spec = fuzzIngestTargets[1]
		}
		s := NewServer()
		defer s.Close()
		inst, err := s.Register("f", spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterFabric("fab", spec, 0); err != nil {
			t.Fatal(err)
		}
		rec := postIngest(s, "f", ndjson, body)
		tenant := postIngestTo(s, "/tenant/fab/t/ingest", ndjson, body)
		if tenant.Code != rec.Code || tenant.Body.String() != rec.Body.String() {
			t.Fatalf("tenant route answered %d %s, named route %d %s: %q", tenant.Code, tenant.Body, rec.Code, rec.Body, body)
		}
		count, _, _, _ := inst.Stats()
		switch code := rec.Code; {
		case code >= 200 && code < 300:
			var ir IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
				t.Fatalf("2xx body %q: %v", rec.Body, err)
			}
			// The batch length by the encoding/json oracle.
			ref, rerr := refDecodeIngestJSON(body, IngestRequest{})
			if ndjson {
				ref, rerr = refParseNDJSON(body, IngestRequest{})
			}
			if rerr != nil || len(ref.Values) != ir.Ingested {
				t.Fatalf("2xx ingested %d, oracle decoded %d values (%v): %q", ir.Ingested, len(ref.Values), rerr, body)
			}
			if count != uint64(ir.Ingested) || ir.Count != count {
				t.Fatalf("2xx ingested %d (count %d) but the sampler counts %d: %q", ir.Ingested, ir.Count, count, body)
			}
		case code >= 400 && code < 500:
			if count != 0 {
				t.Fatalf("%d but the sampler advanced to %d: %q", code, count, body)
			}
		default:
			t.Fatalf("status %d (%s) for %q", code, rec.Body, body)
		}
	})
}

// TestNDJSONLineBoundary pins the NDJSON per-line bound at its edge: a line
// one byte under maxNDJSONLineBytes is ingested, and a line of exactly the
// bound or one byte over is a 413 — with or without a trailing newline.
func TestNDJSONLineBoundary(t *testing.T) {
	for _, tc := range []struct {
		delta   int
		newline bool
		status  int
	}{
		{-1, false, http.StatusOK},
		{-1, true, http.StatusOK},
		{0, false, http.StatusRequestEntityTooLarge},
		{0, true, http.StatusRequestEntityTooLarge},
		{+1, false, http.StatusRequestEntityTooLarge},
		{+1, true, http.StatusRequestEntityTooLarge},
	} {
		s := NewServer()
		inst, err := s.Register("seq", fuzzIngestTargets[0])
		if err != nil {
			t.Fatal(err)
		}
		n := maxNDJSONLineBytes + tc.delta
		body := `{"value":"` + strings.Repeat("x", n-len(`{"value":""}`)) + `"}`
		if tc.newline {
			body += "\n"
		}
		rec := postIngest(s, "seq", true, []byte(body))
		count, _, _, _ := inst.Stats()
		s.Close()
		want := uint64(0)
		if tc.status == http.StatusOK {
			want = 1
		}
		if rec.Code != tc.status || count != want {
			t.Errorf("line of %d bytes (newline %v): status %d count %d, want %d count %d",
				n, tc.newline, rec.Code, count, tc.status, want)
		}
	}
}

// lazyBody generates a request body as it is read: head, then n bytes of
// fill repeated, then tail. A body past maxBodyBytes costs the test no
// buffer of its own.
type lazyBody struct {
	head, fill, tail []byte
	n, off           int // fill bytes left, position in fill
}

func (b *lazyBody) Read(p []byte) (int, error) {
	k := 0
	for k < len(p) {
		switch {
		case len(b.head) > 0:
			c := copy(p[k:], b.head)
			b.head = b.head[c:]
			k += c
		case b.n > 0:
			c := copy(p[k:min(len(p), k+b.n)], b.fill[b.off:])
			b.off = (b.off + c) % len(b.fill)
			b.n -= c
			k += c
		case len(b.tail) > 0:
			c := copy(p[k:], b.tail)
			b.tail = b.tail[c:]
			k += c
		default:
			if k == 0 {
				return 0, io.EOF
			}
			return k, nil
		}
	}
	return k, nil
}

// TestIngestBodyOverCap: an ingest body that runs past maxBodyBytes answers
// 413 and ingests nothing, on both routes and in both formats — including
// an NDJSON body whose cut falls inside a record, which the scanner hands
// to the decoder before it reports the read error, and a JSON body that
// holds a complete batch before the cut.
func TestIngestBodyOverCap(t *testing.T) {
	blankLine := append(bytes.Repeat([]byte(" "), 1023), '\n')
	cases := []struct {
		name   string
		ndjson bool
		body   func() *lazyBody
	}{
		{"ndjson record cut by the cap", true, func() *lazyBody {
			return &lazyBody{fill: blankLine, n: maxBodyBytes - 40,
				tail: []byte("\n" + `{"value":"` + strings.Repeat("x", 100) + `"}` + "\n")}
		}},
		{"ndjson records past the cap", true, func() *lazyBody {
			return &lazyBody{fill: []byte(`{"value":"a"}` + "\n"), n: maxBodyBytes + 1}
		}},
		{"json batch then padding past the cap", false, func() *lazyBody {
			return &lazyBody{head: []byte(`{"values":["a"]}`), fill: []byte(" "), n: maxBodyBytes}
		}},
		{"json array past the cap", false, func() *lazyBody {
			return &lazyBody{head: []byte(`{"values":[`), fill: []byte(`"x",`), n: maxBodyBytes}
		}},
	}
	for _, tc := range cases {
		// Single-goroutine; under -race its whole-body JSON read buffer
		// would cost the detector's shadow memory for nothing.
		if raceEnabled && !tc.ndjson {
			continue
		}
		for _, path := range []string{"/ingest/seq", "/tenant/fab/t/ingest"} {
			s := NewServer()
			inst, err := s.Register("seq", fuzzIngestTargets[0])
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.RegisterFabric("fab", fuzzIngestTargets[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, path, tc.body())
			if tc.ndjson {
				req.Header.Set("Content-Type", "application/x-ndjson")
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			count, _, _, _ := inst.Stats()
			tenant, _ := f.Count("t")
			s.Close()
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
				t.Errorf("%s on %s: %d %s, want 413 naming the cap", tc.name, path, rec.Code, rec.Body)
			}
			if count != 0 || tenant != 0 {
				t.Errorf("%s on %s: ingested %d and %d events from a refused body", tc.name, path, count, tenant)
			}
		}
	}
}
