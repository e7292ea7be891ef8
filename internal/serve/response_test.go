package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"slidingsample/internal/stream"
)

// serveReq runs one request through the server's handler.
func serveReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestNonFiniteEstimatesAnswerConflict pins the estimate routes on a
// window whose weights sum past the float64 maximum: four weights of
// 1e308. encoding/json has no rendering for +Inf, so each route answers
// 409 with a JSON error naming the value, never a 200 with an empty body.
func TestNonFiniteEstimatesAnswerConflict(t *testing.T) {
	const heavy = `{"values":["a","b","c","d"],"weights":[1e308,1e308,1e308,1e308]}`
	const want = `{"error":"serve: estimate is not a finite number: +Inf"}` + "\n"
	s := NewServer()
	defer s.Close()
	if _, err := s.Register("w", Spec{Mode: "seq", Sampler: "sharded-weighted-wor", N: 8, G: 2, K: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("est", Spec{Mode: "seq", Sampler: "subsetsum", N: 8, K: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterFabric("fab", Spec{Mode: "seq", Sampler: "subsetsum", N: 8, K: 2, Seed: 3}, 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/ingest/w", "/ingest/est", "/tenant/fab/t/ingest"} {
		if rec := serveReq(s, http.MethodPost, path, heavy); rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/weight/w", "/subsetsum/est", "/tenant/fab/t/subsetsum"} {
		rec := serveReq(s, http.MethodGet, path, "")
		if rec.Code != http.StatusConflict || rec.Body.String() != want {
			t.Errorf("GET %s: %d %q, want 409 %q", path, rec.Code, rec.Body, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
	}
}

// overlaps reports whether a's bytes lie inside b's.
func overlaps(a, b string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa >= pb && pa < pb+uintptr(len(b))
}

// TestTenantKeyPinsNoRequest: a fabric tenant's map key lives as long as
// the tenant, so it must be its own copy, not the path value the mux cut
// out of the request. Checked through ServeHTTP, where the id is a
// substring of the request's URI.
func TestTenantKeyPinsNoRequest(t *testing.T) {
	s := NewServer()
	defer s.Close()
	f, err := s.RegisterFabric("fab", Spec{Mode: "seq", Sampler: "weighted-wor", N: 64, K: 4, Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const id = "tenant-with-a-long-enough-id"
	req := httptest.NewRequest(http.MethodPost, "/tenant/fab/"+id+"/ingest", strings.NewReader(`{"values":["a"]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if pv := req.PathValue("id"); pv != id || !overlaps(pv, req.RequestURI) && !overlaps(pv, req.URL.Path) {
		t.Fatalf("path value %q does not come from the request line; the check below would prove nothing", pv)
	}
	st := &f.stripes[stripeOf(id)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	found := false
	for key := range st.m {
		if key != id {
			continue
		}
		found = true
		for _, pinned := range []string{req.RequestURI, req.URL.Path, req.URL.RawPath, req.PathValue("id")} {
			if overlaps(key, pinned) {
				t.Fatalf("tenant key %q shares memory with the request string %q", key, pinned)
			}
		}
	}
	if !found {
		t.Fatalf("tenant %q not registered", id)
	}
}

// discardWriter is a ResponseWriter that keeps one header map and counts
// the body bytes, so an allocation count sees only the handler.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestSampleHandlerAllocs bounds the allocations of GET /sample on the
// query-fanout shape (sharded-weighted-ts-wor, G=8, K=64) at the four it
// reads today: the query's one output slice of elements, the response
// header, and the ?at= parse and routing. The response is appended into a
// pooled buffer. Per-shard sample lists would add at least G allocations
// and encoding/json's reflection more (the handler read 23 with both).
// Skipped under -race, whose sync.Pool drops a quarter of all Puts.
func TestSampleHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	s := NewServer()
	defer s.Close()
	inst, err := s.Register("q", Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 3600, G: 8, K: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]string, 200)
	ts := make([]int64, 200)
	weights := make([]float64, 200)
	for b := 0; b < 40; b++ {
		for i := range values {
			values[i] = strings.Repeat("v", 1+(b*200+i)%24)
			ts[i] = int64(b*2 + i/100)
			weights[i] = float64(1 + (b*200+i)%1500)
		}
		if _, err := inst.Ingest(values, ts, weights); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/sample/q", nil)
	w := &discardWriter{h: make(http.Header)}
	run := func() {
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("GET /sample/q: status %d", w.code)
		}
	}
	run()
	run()
	const bound = 4
	if a := testing.AllocsPerRun(50, run); a > bound {
		t.Fatalf("GET /sample: %v allocations per request, want at most %d", a, bound)
	}
}

// encodeRef is the reference response: json.NewEncoder(w).Encode(v).
func encodeRef(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// written renders body through writeResponse, as the routes do.
func written(body []byte) []byte {
	rec := httptest.NewRecorder()
	writeResponse(rec, body)
	return rec.Body.Bytes()
}

// FuzzQueryResponseDiff holds the query response encoders to
// json.NewEncoder(w).Encode of each route's response type on the same
// inputs: a sample of up to three elements alternating two arbitrary
// values (quotes, HTML bytes, U+2028/2029, invalid UTF-8, control bytes),
// any index and timestamp, ok either way or an empty sample, and any
// float64 estimate. For a non-finite estimate encoding/json's refusal must
// be checkFinite's, which the routes turn into a 409.
func FuzzQueryResponseDiff(f *testing.F) {
	for _, c := range []struct {
		a, b  string
		index uint64
		ts    int64
		ok    bool
		n     uint8
		est   float64
	}{
		{"plain", "", 0, 0, true, 2, 1},
		{`<a href="x">&amp;</a>`, "   ", math.MaxUint64, math.MinInt64, true, 3, 1e21},
		{"\xff\xfe bad \xc3", "\x00\x01\x1f\b\f\n\r\t\\\"\x7f", 1 << 63, -1, false, 1, math.Copysign(0, -1)},
		{"", "", 5, -7, false, 0, math.Inf(1)},
		{"x", "y", 9, 9, true, 0, math.NaN()},
		{"é日本\U0001F600", "�", 1, 1, true, 3, 1e-7},
		{"a", "b", 2, 3, true, 2, math.Inf(-1)},
		{"a", "b", 2, 3, true, 1, 123456789.125},
		{"a", "b", 2, 3, false, 3, 5e-324},
		{"a", "b", 2, 3, true, 1, math.MaxFloat64},
		{"a", "b", 2, 3, true, 1, 1 << 53},
		{"a", "b", 2, 3, true, 1, -2.5e-9},
	} {
		f.Add(c.a, c.b, c.index, c.ts, c.ok, c.n, c.est)
	}
	f.Fuzz(func(t *testing.T, a, b string, index uint64, ts int64, ok bool, n uint8, est float64) {
		es := make([]stream.Element[string], n%4)
		resp := SampleResponse{OK: ok}
		for i := range es {
			v := a
			if i%2 == 1 {
				v = b
			}
			es[i] = stream.Element[string]{Value: v, Index: index + uint64(i), TS: ts - int64(i)}
			resp.Sample = append(resp.Sample, SampledElement{Value: v, Index: es[i].Index, TS: es[i].TS})
		}
		diff := func(route string, ref any, body func() []byte) {
			t.Helper()
			want, err := encodeRef(ref)
			if err != nil {
				t.Fatalf("%s: encoding/json refused %+v: %v", route, ref, err)
			}
			if got := written(body()); !bytes.Equal(got, want) {
				t.Fatalf("%s: encoder wrote %q, encoding/json %q", route, got, want)
			}
		}
		diff("sample", resp, func() []byte { return appendSampleResponse(respBuf(), es, ok) })
		diff("size", map[string]uint64{"size": index}, func() []byte { return appendSizeResponse(respBuf(), index) })

		_, refErr := encodeRef(est)
		if finErr := checkFinite(est); (refErr != nil) != (finErr != nil) {
			t.Fatalf("estimate %v: encoding/json error %v, checkFinite %v", est, refErr, finErr)
		}
		if refErr != nil {
			return
		}
		diff("weight", map[string]float64{"weight": est}, func() []byte { return appendWeightResponse(respBuf(), est) })
		diff("subsetsum", SubsetSumResponse{OK: ok, Estimate: est}, func() []byte { return appendSubsetSumResponse(respBuf(), est, ok) })
	})
}
