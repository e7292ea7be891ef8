package serve

// Network-decoder fuzzing at the handler: whatever bytes arrive at an
// ingest endpoint, the answer is either a 2xx with the sampler advanced by
// exactly the batch, or a 4xx with the sampler untouched — never a 5xx,
// never a panic. Explore beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzIngestHandler ./internal/serve/

import (
	"bytes"
	"encoding/json"
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
	contentType := "application/json"
	if ndjson {
		contentType = "application/x-ndjson"
	}
	return serveRecorded(s, http.MethodPost, "/ingest/"+name, contentType, body)
}

func FuzzIngestHandler(f *testing.F) {
	for _, tc := range malformedBatchCases {
		f.Add([]byte(tc.body), tc.ct == "application/x-ndjson", tc.target != "/ingest/seq")
	}
	for _, body := range ingestDiffCorpus {
		f.Add([]byte(body), strings.Contains(body, `"value"`), strings.Contains(body, "ts"))
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
		rec := postIngest(s, "f", ndjson, body)
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
