package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"slidingsample/internal/apps"
	"slidingsample/internal/core"
	"slidingsample/internal/parallel"
	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// burstyStream builds the shared e2e stream: bursts of several elements
// per tick, a silence gap mid-stream, weights cycling over a skewed law.
type e2eEvent struct {
	value  string
	ts     int64
	weight float64
}

func burstyStream(m int) []e2eEvent {
	out := make([]e2eEvent, m)
	for i := range out {
		ts := int64(i / 7) // bursts of 7 per tick
		if i > m/2 {
			ts += 25 // a silence gap: the window drains mid-stream
		}
		out[i] = e2eEvent{
			value:  fmt.Sprintf("ev-%04d", i),
			ts:     ts,
			weight: float64(i%13) + 1,
		}
	}
	return out
}

// ingestHTTP posts one batch of events (with explicit weights when
// withWeights is set) and fails the test on any non-200.
func ingestHTTP(t *testing.T, url string, events []e2eEvent, withWeights bool) {
	t.Helper()
	req := IngestRequest{}
	for _, e := range events {
		req.Values = append(req.Values, e.value)
		req.Timestamps = append(req.Timestamps, e.ts)
		if withWeights {
			req.Weights = append(req.Weights, e.weight)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, url, string(body))
	wantStatus(t, code, http.StatusOK, resp)
}

// TestE2EShardedWeightedWORMatchesDirectSampler is the headline end-to-end
// check: a bursty weighted stream ingested over HTTP in batches answers
// /sample, /size and /weight byte-for-byte like a DIRECTLY driven
// parallel.ShardedWeightedTSWOR built from the same seed — the serving
// layer adds plumbing, not randomness.
func TestE2EShardedWeightedWORMatchesDirectSampler(t *testing.T) {
	const (
		seed = uint64(424242)
		t0   = int64(30)
		g    = 4
		k    = 6
		m    = 700
	)
	s := NewServer()
	defer s.Close()
	if _, err := s.Register("flows", Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: t0, K: k, G: g, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	// The direct twin: the same constructor call Build makes, fed the same
	// batches through the precomputed-weight path the handler uses.
	weight, err := substrate.WeightFunc("")
	if err != nil {
		t.Fatal(err)
	}
	direct := parallel.NewShardedWeightedTSWOR[string](xrand.New(seed), t0, g, k, weighted.DefaultSizeEps, weight)
	defer direct.Close()

	check := func(now int64) {
		t.Helper()
		code, body := get(t, fmt.Sprintf("%s/sample/flows?at=%d", hs.URL, now))
		wantStatus(t, code, http.StatusOK, body)
		var sr SampleResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		direct.Barrier()
		es, ok := direct.SampleAt(now)
		if sr.OK != ok || len(sr.Sample) != len(es) {
			t.Fatalf("now=%d: HTTP ok=%v |%d| vs direct ok=%v |%d|", now, sr.OK, len(sr.Sample), ok, len(es))
		}
		for i, e := range es {
			got := sr.Sample[i]
			if got.Value != e.Value || got.Index != e.Index || got.TS != e.TS {
				t.Fatalf("now=%d slot %d: HTTP %+v vs direct %+v", now, i, got, e)
			}
		}

		code, body = get(t, fmt.Sprintf("%s/size/flows?at=%d", hs.URL, now))
		wantStatus(t, code, http.StatusOK, body)
		var sz map[string]uint64
		if err := json.Unmarshal([]byte(body), &sz); err != nil {
			t.Fatal(err)
		}
		if want := direct.SizeAt(now); sz["size"] != want {
			t.Fatalf("now=%d: HTTP size %d vs direct %d", now, sz["size"], want)
		}

		code, body = get(t, fmt.Sprintf("%s/weight/flows?at=%d", hs.URL, now))
		wantStatus(t, code, http.StatusOK, body)
		var wt map[string]float64
		if err := json.Unmarshal([]byte(body), &wt); err != nil {
			t.Fatal(err)
		}
		if want := direct.TotalWeightAt(now); wt["weight"] != want {
			t.Fatalf("now=%d: HTTP weight %v vs direct %v", now, wt["weight"], want)
		}
	}

	events := burstyStream(m)
	var last int64
	for lo := 0; lo < m; lo += 97 { // deliberately batch-size-unaligned
		hi := lo + 97
		if hi > m {
			hi = m
		}
		chunk := events[lo:hi]
		ingestHTTP(t, hs.URL+"/ingest/flows", chunk, true)
		batch := make([]stream.Element[string], len(chunk))
		ws := make([]float64, len(chunk))
		for i, e := range chunk {
			batch[i] = stream.Element[string]{Value: e.value, TS: e.ts}
			ws[i] = e.weight
		}
		direct.ObserveWeightedBatch(batch, ws)

		// Query only at the batch boundary while ingest continues: the
		// query clock is monotone, so sampling PAST the boundary would
		// (correctly) refuse the next batch's older timestamps.
		last = chunk[len(chunk)-1].ts
		check(last)
	}
	// After the final arrival the window drains at query time: walk the
	// clock through partial expiry to total emptiness.
	for _, now := range []int64{last + 3, last + t0/2, last + t0 + 1} {
		check(now)
	}
}

// TestE2ESequenceWORMatchesDirectSampler: the unweighted sequence window
// over HTTP matches a directly driven core.SeqWOR.
func TestE2ESequenceWORMatchesDirectSampler(t *testing.T) {
	const (
		seed = uint64(77)
		n    = uint64(128)
		k    = 5
		m    = 600
	)
	s := NewServer()
	defer s.Close()
	if _, err := s.Register("lines", Spec{Mode: "seq", Sampler: "wor", N: n, K: k, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()
	direct := core.NewSeqWOR[string](xrand.New(seed), n, k)

	for lo := 0; lo < m; lo += 50 {
		var req IngestRequest
		var batch []stream.Element[string]
		for i := lo; i < lo+50 && i < m; i++ {
			v := fmt.Sprintf("line-%04d", i)
			req.Values = append(req.Values, v)
			batch = append(batch, stream.Element[string]{Value: v})
		}
		body, _ := json.Marshal(req)
		code, resp := post(t, hs.URL+"/ingest/lines", string(body))
		wantStatus(t, code, http.StatusOK, resp)
		direct.ObserveBatch(batch)

		code, resp = get(t, hs.URL+"/sample/lines")
		wantStatus(t, code, http.StatusOK, resp)
		var sr SampleResponse
		if err := json.Unmarshal([]byte(resp), &sr); err != nil {
			t.Fatal(err)
		}
		es, ok := direct.Sample()
		if sr.OK != ok || len(sr.Sample) != len(es) {
			t.Fatalf("after %d: HTTP ok=%v |%d| vs direct ok=%v |%d|", lo, sr.OK, len(sr.Sample), ok, len(es))
		}
		for i, e := range es {
			got := sr.Sample[i]
			if got.Value != e.Value || got.Index != e.Index {
				t.Fatalf("slot %d: HTTP %+v vs direct %+v", i, got, e)
			}
		}
	}
}

// TestE2ESubsetSumMatchesDirectEstimator: the /subsetsum endpoint answers
// exactly like a directly driven sharded estimator, for several post-hoc
// predicates over the same sketch.
func TestE2ESubsetSumMatchesDirectEstimator(t *testing.T) {
	const (
		seed = uint64(31337)
		t0   = int64(40)
		g    = 2
		k    = 8
		m    = 400
	)
	s := NewServer()
	defer s.Close()
	if _, err := s.Register("est", Spec{Mode: "ts", Sampler: "sharded-subsetsum-ts", T0: t0, K: k, G: g, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	weight, err := substrate.WeightFunc("")
	if err != nil {
		t.Fatal(err)
	}
	direct := apps.NewShardedSubsetSumTS[string](xrand.New(seed), t0, g, k, weighted.DefaultSizeEps, weight)
	defer direct.Close()

	// Values alternate two prefixes so the predicate splits the window.
	var req IngestRequest
	var batch []stream.Element[string]
	for i := 0; i < m; i++ {
		prefix := "get"
		if i%3 == 0 {
			prefix = "put"
		}
		v := fmt.Sprintf("%s-%04d", prefix, i)
		ts := int64(i / 5)
		req.Values = append(req.Values, v)
		req.Timestamps = append(req.Timestamps, ts)
		batch = append(batch, stream.Element[string]{Value: v, TS: ts})
	}
	body, _ := json.Marshal(req)
	code, resp := post(t, hs.URL+"/ingest/est", string(body))
	wantStatus(t, code, http.StatusOK, resp)
	direct.ObserveBatch(batch)
	direct.Barrier()

	now := int64((m - 1) / 5)
	for _, q := range []struct {
		query string
		pred  func(string) bool
	}{
		{"", func(string) bool { return true }},
		{"&prefix=put", func(v string) bool { return strings.HasPrefix(v, "put") }},
		{"&contains=-03", func(v string) bool { return strings.Contains(v, "-03") }},
	} {
		code, resp := get(t, fmt.Sprintf("%s/subsetsum/est?at=%d%s", hs.URL, now, q.query))
		wantStatus(t, code, http.StatusOK, resp)
		var sr SubsetSumResponse
		if err := json.Unmarshal([]byte(resp), &sr); err != nil {
			t.Fatal(err)
		}
		want, ok := direct.EstimateAt(now, q.pred)
		if sr.OK != ok || sr.Estimate != want {
			t.Fatalf("query %q: HTTP (%v, %v) vs direct (%v, %v)", q.query, sr.Estimate, sr.OK, want, ok)
		}
	}
	// The oracle endpoints ride the same dispatcher-side state.
	code, resp = get(t, fmt.Sprintf("%s/size/est?at=%d", hs.URL, now))
	wantStatus(t, code, http.StatusOK, resp)
	var sz map[string]uint64
	if err := json.Unmarshal([]byte(resp), &sz); err != nil {
		t.Fatal(err)
	}
	if want := direct.SizeAt(now); sz["size"] != want {
		t.Fatalf("size: HTTP %d vs direct %d", sz["size"], want)
	}
	code, resp = get(t, fmt.Sprintf("%s/weight/est?at=%d", hs.URL, now))
	wantStatus(t, code, http.StatusOK, resp)
	var wt map[string]float64
	if err := json.Unmarshal([]byte(resp), &wt); err != nil {
		t.Fatal(err)
	}
	if want := direct.TotalWeightAt(now); wt["weight"] != want {
		t.Fatalf("weight: HTTP %v vs direct %v", wt["weight"], want)
	}
}
