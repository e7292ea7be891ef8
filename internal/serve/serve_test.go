package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer registers a standard battery of instances: a sequence WOR,
// a weighted timestamp WOR, a sharded weighted timestamp WOR and a sharded
// subset-sum estimator, all seeded.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	specs := map[string]Spec{
		"seq":     {Mode: "seq", Sampler: "wor", N: 64, K: 4, Seed: 1},
		"wts":     {Mode: "ts", Sampler: "weighted-ts-wor", T0: 60, K: 4, Seed: 2},
		"shts":    {Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 60, K: 4, G: 4, Seed: 3},
		"est":     {Mode: "ts", Sampler: "sharded-subsetsum-ts", T0: 60, K: 6, G: 2, Seed: 4},
		"uniform": {Mode: "ts", Sampler: "wor", T0: 60, K: 4, Seed: 5},
		"shseq":   {Mode: "seq", Sampler: "sharded-weighted-wor", N: 64, K: 4, G: 4, Seed: 6},
	}
	for name, spec := range specs {
		if _, err := s.Register(name, spec); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// do issues a request and returns status and decoded-to-string body.
func do(t *testing.T, method, url, contentType, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b))
}

func post(t *testing.T, url, body string) (int, string) {
	return do(t, http.MethodPost, url, "application/json", body)
}

// postHdr is post exposing the response headers (for header-contract
// assertions like Retry-After on 503).
func postHdr(t *testing.T, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b)), resp.Header
}

func get(t *testing.T, url string) (int, string) {
	return do(t, http.MethodGet, url, "", "")
}

func wantStatus(t *testing.T, got int, want int, body string) {
	t.Helper()
	if got != want {
		t.Fatalf("status %d, want %d (body: %s)", got, want, body)
	}
}

func TestHandlerUnknownSampler(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		ts.URL + "/sample/nope",
		ts.URL + "/size/nope",
		ts.URL + "/weight/nope",
		ts.URL + "/subsetsum/nope",
	} {
		code, body := get(t, url)
		wantStatus(t, code, http.StatusNotFound, body)
	}
	code, body := post(t, ts.URL+"/ingest/nope", `{"values":["a"]}`)
	wantStatus(t, code, http.StatusNotFound, body)
}

// malformedBatchCases are ingest bodies their target must refuse with a 400
// and nothing admitted (FuzzIngestHandler seeds from them too).
var malformedBatchCases = []struct {
	name, target, ct, body string
}{
	{"truncated JSON", "/ingest/seq", "application/json", `{"values":["a"`},
	{"trailing data", "/ingest/seq", "application/json", `{"values":["a"]} {"values":["b"]}`},
	{"unknown field", "/ingest/seq", "application/json", `{"values":["a"],"bogus":1}`},
	{"shape mismatch", "/ingest/wts", "application/json", `{"values":["a","b"],"timestamps":[1]}`},
	{"weights shape", "/ingest/wts", "application/json", `{"values":["a","b"],"timestamps":[1,2],"weights":[1]}`},
	{"seq with timestamps", "/ingest/seq", "application/json", `{"values":["a"],"timestamps":[1]}`},
	{"ts without timestamps", "/ingest/wts", "application/json", `{"values":["a"]}`},
	{"zero weight", "/ingest/wts", "application/json", `{"values":["a"],"timestamps":[1],"weights":[0]}`},
	{"negative weight", "/ingest/wts", "application/json", `{"values":["a"],"timestamps":[1],"weights":[-2]}`},
	{"weights on uniform substrate", "/ingest/uniform", "application/json", `{"values":["a"],"timestamps":[1],"weights":[1]}`},
	{"bad NDJSON record", "/ingest/wts", "application/x-ndjson", `{"value":"a","ts":1}` + "\nnot-json\n"},
	{"ragged NDJSON ts", "/ingest/wts", "application/x-ndjson", `{"value":"a","ts":1}` + "\n" + `{"value":"b"}`},
	{"ragged NDJSON weight", "/ingest/wts", "application/x-ndjson", `{"value":"a","ts":1,"weight":2}` + "\n" + `{"value":"b","ts":2}`},
}

func TestHandlerMalformedBatch(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range malformedBatchCases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, http.MethodPost, ts.URL+tc.target, tc.ct, tc.body)
			wantStatus(t, code, http.StatusBadRequest, body)
			var e errResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON {error}: %s", body)
			}
		})
	}
	// A rejected batch leaves the sampler untouched: count stays 0.
	code, body := get(t, ts.URL+"/samplers")
	wantStatus(t, code, http.StatusOK, body)
	var infos []SamplerInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Count != 0 {
			t.Fatalf("sampler %s ingested %d elements from rejected batches", info.Name, info.Count)
		}
	}
}

func TestHandlerQueryBeforeFirstArrival(t *testing.T) {
	_, ts := newTestServer(t)
	// A timestamp window with no arrivals cannot answer "as of" queries —
	// doing so would pin the stream clock before the stream begins.
	for _, url := range []string{
		ts.URL + "/sample/wts",
		ts.URL + "/sample/wts?at=10",
		ts.URL + "/size/wts",
		ts.URL + "/size/shts?at=5",
		ts.URL + "/weight/shts",
		ts.URL + "/subsetsum/est?at=3",
	} {
		code, body := get(t, url)
		wantStatus(t, code, http.StatusConflict, body)
	}
	// Sequence windows have no clock: an empty window is just ok=false.
	code, body := get(t, ts.URL+"/sample/seq")
	wantStatus(t, code, http.StatusOK, body)
	var sr SampleResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || sr.OK {
		t.Fatalf("empty seq sample should be ok=false: %s", body)
	}
}

func TestHandlerNonMonotoneClocks(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/ingest/wts", `{"values":["aa","bb"],"timestamps":[10,20]}`)
	wantStatus(t, code, http.StatusOK, body)

	// Ingest timestamps must be non-decreasing, within and across batches.
	code, body = post(t, ts.URL+"/ingest/wts", `{"values":["cc"],"timestamps":[5]}`)
	wantStatus(t, code, http.StatusConflict, body)
	code, body = post(t, ts.URL+"/ingest/wts", `{"values":["cc","dd"],"timestamps":[30,25]}`)
	wantStatus(t, code, http.StatusConflict, body)

	// The query clock is monotone too: sampling at 40 advances it, and an
	// older clock-advancing query is refused...
	code, body = get(t, ts.URL+"/sample/wts?at=40")
	wantStatus(t, code, http.StatusOK, body)
	code, body = get(t, ts.URL+"/sample/wts?at=30")
	wantStatus(t, code, http.StatusConflict, body)
	// ...as is ingest older than the advanced clock.
	code, body = post(t, ts.URL+"/ingest/wts", `{"values":["ee"],"timestamps":[35]}`)
	wantStatus(t, code, http.StatusConflict, body)

	// Read-only oracles clamp instead: they move no state.
	code, body = get(t, ts.URL+"/size/wts?at=30")
	wantStatus(t, code, http.StatusOK, body)

	// Sequence windows reject at= outright.
	code, body = post(t, ts.URL+"/ingest/seq", `{"values":["a","b","c"]}`)
	wantStatus(t, code, http.StatusOK, body)
	code, body = get(t, ts.URL+"/sample/seq?at=1")
	wantStatus(t, code, http.StatusBadRequest, body)
}

func TestHandlerCapabilityGaps(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/ingest/uniform", `{"values":["aa"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusOK, body)
	// Estimators accept explicit weights too: the precomputed weight flows
	// into the sketch (and the HT estimate) without the weight function.
	code, body = post(t, ts.URL+"/ingest/est", `{"values":["aa"],"timestamps":[1],"weights":[7.5]}`)
	wantStatus(t, code, http.StatusOK, body)
	code, body = get(t, ts.URL+"/subsetsum/est?at=1")
	wantStatus(t, code, http.StatusOK, body)
	var ss SubsetSumResponse
	if err := json.Unmarshal([]byte(body), &ss); err != nil || !ss.OK || ss.Estimate != 7.5 {
		t.Fatalf("explicit-weight subset sum: %s", body)
	}

	// Uniform samplers have no size/weight oracles and no estimator.
	for _, url := range []string{
		ts.URL + "/size/uniform",
		ts.URL + "/weight/uniform",
		ts.URL + "/subsetsum/uniform",
		ts.URL + "/weight/seq",
		ts.URL + "/subsetsum/seq",
	} {
		code, body := get(t, url)
		wantStatus(t, code, http.StatusBadRequest, body)
	}
	// Estimators answer /subsetsum, /size, /weight but not /sample.
	code, body = get(t, ts.URL+"/sample/est")
	wantStatus(t, code, http.StatusBadRequest, body)
	for _, url := range []string{
		ts.URL + "/subsetsum/est",
		ts.URL + "/size/est",
		ts.URL + "/weight/est",
	} {
		code, body := get(t, url)
		wantStatus(t, code, http.StatusOK, body)
	}
	// Sequence-window sharded weighted samplers answer /weight through the
	// arrival-index-clocked TotalWeight oracle — but take no at=.
	code, body = post(t, ts.URL+"/ingest/shseq", `{"values":["aa","bbb","c"],"weights":[2,3,1]}`)
	wantStatus(t, code, http.StatusOK, body)
	code, body = get(t, ts.URL+"/weight/shseq")
	wantStatus(t, code, http.StatusOK, body)
	var wt map[string]float64
	if err := json.Unmarshal([]byte(body), &wt); err != nil || wt["weight"] != 6 {
		t.Fatalf("shseq weight: %s", body)
	}
	code, body = get(t, ts.URL+"/weight/shseq?at=1")
	wantStatus(t, code, http.StatusBadRequest, body)
}

// freshRegisterBody registers a new sampler; badRegisterBodies are POST
// /samplers bodies the registry must refuse with a 400 or 409 (the
// duplicate is the "seq" sampler newTestServer registers). Both seed
// FuzzRegisterHandler's corpus.
const freshRegisterBody = `{"name":"fresh","spec":{"mode":"ts","sampler":"weighted-ts-wr","t0":30,"k":3,"seed":9}}`

var badRegisterBodies = map[string]string{
	"duplicate name": `{"name":"seq","spec":{"mode":"seq","sampler":"wor","n":8,"k":2}}`,
	"bad mode":       `{"name":"x1","spec":{"mode":"circular","sampler":"wor","n":8,"k":2}}`,
	"bad sampler":    `{"name":"x2","spec":{"mode":"seq","sampler":"quantum","n":8,"k":2}}`,
	"bad name":       `{"name":"a b","spec":{"mode":"seq","sampler":"wor","n":8,"k":2}}`,
	"zero k":         `{"name":"x3","spec":{"mode":"seq","sampler":"wor","n":8}}`,
	"bad weight fn":  `{"name":"x4","spec":{"mode":"seq","sampler":"weighted-wor","n":8,"k":2,"weight":"grams"}}`,
	"indivisible n":  `{"name":"x5","spec":{"mode":"seq","sampler":"sharded-weighted-wor","n":10,"g":4,"k":2}}`,
	// Serving caps: registration is network-reachable, so parameters
	// that drive eager allocation are bounded (a 2e9-slot fullwindow
	// ring would OOM the process from one unauthenticated POST, and so
	// would a ts sharded-wor at g = MaxG, k = MaxK: ~6 GB of shard state).
	"fullwindow n over cap": `{"name":"x6","spec":{"mode":"seq","sampler":"fullwindow","n":2000000000,"k":1}}`,
	"k over cap":            `{"name":"x7","spec":{"mode":"seq","sampler":"wor","n":8,"k":1000000000}}`,
	"g over cap":            `{"name":"x8","spec":{"mode":"ts","sampler":"sharded-wr","t0":10,"k":2,"g":1000000}}`,
	"g·k over cap":          `{"name":"x9","spec":{"mode":"ts","sampler":"sharded-wor","t0":10,"k":65536,"g":256}}`,
}

func TestHandlerRegister(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/samplers", freshRegisterBody)
	wantStatus(t, code, http.StatusCreated, body)
	code, body = post(t, ts.URL+"/ingest/fresh", `{"values":["hello"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusOK, body)

	for name, req := range badRegisterBodies {
		t.Run(name, func(t *testing.T) {
			code, body := post(t, ts.URL+"/samplers", req)
			if code != http.StatusBadRequest && code != http.StatusConflict {
				t.Fatalf("status %d, want 400/409 (body: %s)", code, body)
			}
		})
	}
}

// TestShardSlotsCap pins the g·k cap at its edge on a sharded sampler
// whose shard state is small: g·k = MaxShardSlots registers, one more
// shard is refused, and the cap leaves unsharded samplers alone.
func TestShardSlotsCap(t *testing.T) {
	s := NewServer()
	t.Cleanup(s.Close)
	edge := Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 10, K: MaxK, G: MaxShardSlots / MaxK}
	if _, err := s.Register("edge", edge); err != nil {
		t.Fatalf("g·k = MaxShardSlots refused: %v", err)
	}
	over := edge
	over.G++
	if _, err := s.Register("over", over); err == nil || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("g·k over MaxShardSlots: err %v, want a 400", err)
	}
	if _, err := s.Register("flat", Spec{Mode: "ts", Sampler: "weighted-ts-wor", T0: 10, K: MaxK, G: MaxG}); err != nil {
		t.Fatalf("unsharded sampler with a large g refused: %v", err)
	}
}

func TestHandlerNDJSONIngest(t *testing.T) {
	_, ts := newTestServer(t)
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "{\"value\":\"ev-%d\",\"ts\":%d,\"weight\":%d}\n", i, i/3, i%4+1)
	}
	code, body := do(t, http.MethodPost, ts.URL+"/ingest/shts", "application/x-ndjson", b.String())
	wantStatus(t, code, http.StatusOK, body)
	var ir IngestResponse
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 10 || ir.Count != 10 {
		t.Fatalf("ingested %d count %d, want 10/10", ir.Ingested, ir.Count)
	}
	code, body = get(t, ts.URL+"/sample/shts?at=3")
	wantStatus(t, code, http.StatusOK, body)
	var sr SampleResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || !sr.OK {
		t.Fatalf("sample after NDJSON ingest: %s", body)
	}
}

// TestHandlerDeterminism: two servers with identical registrations and
// request sequences answer byte-identically — the WithSeed contract holds
// through the HTTP surface.
func TestHandlerDeterminism(t *testing.T) {
	run := func() []string {
		s := NewServer()
		defer s.Close()
		if _, err := s.Register("d", Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 40, K: 5, G: 4, Seed: 1234}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		var out []string
		for round := 0; round < 5; round++ {
			var vals, tss, ws []string
			for i := 0; i < 40; i++ {
				n := round*40 + i
				vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("ev-%04d", n)))
				tss = append(tss, fmt.Sprintf("%d", n/6))
				ws = append(ws, fmt.Sprintf("%d", n%9+1))
			}
			body := fmt.Sprintf(`{"values":[%s],"timestamps":[%s],"weights":[%s]}`,
				strings.Join(vals, ","), strings.Join(tss, ","), strings.Join(ws, ","))
			code, resp := post(t, ts.URL+"/ingest/d", body)
			wantStatus(t, code, http.StatusOK, resp)
			out = append(out, resp)
			for _, q := range []string{"/sample/d", "/size/d", "/weight/d"} {
				code, resp := get(t, ts.URL+q)
				wantStatus(t, code, http.StatusOK, resp)
				out = append(out, resp)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("response counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestServerCloseDrainsAndRefusesIngest: Close barriers in-flight sharded
// ingest, instances stay queryable, further ingest is 409.
func TestServerCloseDrainsAndRefusesIngest(t *testing.T) {
	s, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/ingest/shts", `{"values":["aa","bb","cc"],"timestamps":[1,2,3]}`)
	wantStatus(t, code, http.StatusOK, body)
	s.Close()
	s.Close() // idempotent
	code, body = get(t, ts.URL+"/sample/shts")
	wantStatus(t, code, http.StatusOK, body)
	var sr SampleResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || !sr.OK || len(sr.Sample) != 3 {
		t.Fatalf("closed server should stay queryable with the full drained window: %s", body)
	}
	code, body = post(t, ts.URL+"/ingest/shts", `{"values":["dd"],"timestamps":[4]}`)
	wantStatus(t, code, http.StatusConflict, body)
	code, body = post(t, ts.URL+"/samplers", `{"name":"late","spec":{"mode":"seq","sampler":"wor","n":8,"k":2}}`)
	wantStatus(t, code, http.StatusConflict, body)
}
