package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"slidingsample/internal/parallel"
)

// pipelineSpecs is the four sharded weighted substrates the determinism
// acceptance criterion names, plus the sharded uniform ones for good
// measure.
var pipelineSpecs = map[string]Spec{
	"wtswor":  {Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 60, K: 5, G: 4, Seed: 11},
	"wtswr":   {Mode: "ts", Sampler: "sharded-weighted-ts-wr", T0: 60, K: 5, G: 4, Seed: 12},
	"wseqwor": {Mode: "seq", Sampler: "sharded-weighted-wor", N: 64, K: 5, G: 4, Seed: 13},
	"wseqwr":  {Mode: "seq", Sampler: "sharded-weighted-wr", N: 64, K: 5, G: 4, Seed: 14},
	"utswr":   {Mode: "ts", Sampler: "sharded-wr", T0: 60, K: 5, G: 4, Seed: 15},
	"utswor":  {Mode: "ts", Sampler: "sharded-wor", T0: 60, K: 5, G: 4, Seed: 16},
}

// pipelineTranscript drives one server through a fixed sequential request
// script — batched ingest, samples, oracles — and returns the concatenated
// response bodies. The script is identical across calls, so two servers
// with equal seeds must return byte-identical transcripts.
func pipelineTranscript(t *testing.T, names []string) string {
	t.Helper()
	s := NewServer()
	for _, name := range names {
		if _, err := s.Register(name, pipelineSpecs[name]); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	var out strings.Builder
	now := int64(0)
	idx := 0
	for round := 0; round < 8; round++ {
		var vals, tstamps, weights []string
		for i := 0; i < 23; i++ {
			if i%4 != 3 {
				now++
			}
			vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("v%d", idx)))
			tstamps = append(tstamps, fmt.Sprintf("%d", now))
			weights = append(weights, fmt.Sprintf("%d.25", idx%9+1))
			idx++
		}
		for _, name := range names {
			body := `{"values":[` + strings.Join(vals, ",") + `]`
			if pipelineSpecs[name].Mode == "ts" {
				body += `,"timestamps":[` + strings.Join(tstamps, ",") + `]`
			}
			if strings.Contains(pipelineSpecs[name].Sampler, "weighted") {
				body += `,"weights":[` + strings.Join(weights, ",") + `]`
			}
			body += `}`
			code, resp := post(t, ts.URL+"/ingest/"+name, body)
			wantStatus(t, code, 200, resp)
			out.WriteString(resp)
		}
		for _, name := range names {
			for _, ep := range []string{"/sample/", "/size/", "/weight/"} {
				code, resp := get(t, ts.URL+ep+name)
				if code != 200 && code != 400 { // 400: capability absent on this substrate
					t.Fatalf("GET %s%s: status %d (%s)", ep, name, code, resp)
				}
				out.WriteString(resp)
			}
		}
	}
	return out.String()
}

// TestPipelinedMatchesLegacyIngest is the acceptance-criterion determinism
// regression: the pipelined staging-queue ingest path plus the parallel
// shard fan-out produce responses byte-identical to the legacy
// lock-everything ingest path with sequential shard queries, under equal
// seeds and an equal request order — for all four sharded weighted
// substrates and the sharded uniform ones.
func TestPipelinedMatchesLegacyIngest(t *testing.T) {
	names := []string{"wtswor", "wtswr", "wseqwor", "wseqwr", "utswr", "utswor"}

	SetPipelinedIngest(false)
	parallel.SetQueryFanout(1)
	legacy := pipelineTranscript(t, names)

	SetPipelinedIngest(true)
	parallel.SetQueryFanout(8)
	t.Cleanup(func() { parallel.SetQueryFanout(0) })
	pipelined := pipelineTranscript(t, names)

	if legacy != pipelined {
		t.Fatalf("pipelined+fanout transcript diverges from legacy+sequential\nlegacy:    %.400s\npipelined: %.400s", legacy, pipelined)
	}
}

// TestIngestOverload pins the bounded-queue contract: when the applier
// cannot run (the application lock is held) and the staging queue fills,
// admission fails with ErrOverloaded — mapped to HTTP 503 — and succeeds
// again once the queue drains.
func TestIngestOverload(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	inst, err := s.Register("q", Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 60, K: 4, G: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst.queueCap = 5 // shrink the bound so the test fills it instantly

	// Pin the application lock so nothing drains while we overfill.
	// Admission only needs the small queue mutex, so staging keeps working.
	inst.mu.Lock()
	if _, err := inst.Ingest([]string{"a", "b", "c"}, []int64{1, 1, 2}, nil); err != nil {
		inst.mu.Unlock()
		t.Fatalf("first batch: %v", err)
	}
	if _, err := inst.Ingest([]string{"d", "e"}, []int64{2, 3}, nil); err != nil {
		inst.mu.Unlock()
		t.Fatalf("second batch (at the bound): %v", err)
	}
	if _, err := inst.Ingest([]string{"f"}, []int64{3}, nil); err != ErrOverloaded {
		inst.mu.Unlock()
		t.Fatalf("overfull queue: got %v, want ErrOverloaded", err)
	}
	// The HTTP surface maps the same condition to 503, with the Retry-After
	// backoff hint (DESIGN.md §7: nothing was admitted — pause briefly and
	// resend the SAME batch).
	code, body, hdr := postHdr(t, ts.URL+"/ingest/q", `{"values":["g"],"timestamps":[4]}`)
	inst.mu.Unlock()
	wantStatus(t, code, 503, body)
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("503 Retry-After = %q, want %q", got, "1")
	}

	// Once the applier drains, admission succeeds again and the rejected
	// batches left no trace: the count reflects exactly the admitted ones.
	// Stats applies whatever the applier has not reached yet, so the post
	// below cannot race the applier for the freed queue space.
	inst.Stats()
	code, body = post(t, ts.URL+"/ingest/q", `{"values":["h"],"timestamps":[4]}`)
	wantStatus(t, code, 200, body)
	if want := `{"ingested":1,"count":6}`; body != want {
		t.Fatalf("post-drain ingest body %s, want %s", body, want)
	}
}

// TestPipelinedConcurrentProducers hammers pipelined admission: many
// producers ingest concurrently into one seq-mode instance (no timestamp
// ordering between them to violate), while readers scrape every endpoint.
// The final count must account for every admitted element exactly once,
// and a final sample must see a fully drained, consistent substrate.
func TestPipelinedConcurrentProducers(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	if _, err := s.Register("cp", Spec{Mode: "seq", Sampler: "sharded-weighted-wr", N: 160, K: 4, G: 4, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		rounds    = 40
		perBatch  = 11
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var vals []string
				for i := 0; i < perBatch; i++ {
					vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("p%dr%di%d", p, r, i)))
				}
				code, body := post(t, ts.URL+"/ingest/cp", `{"values":[`+strings.Join(vals, ",")+`]}`)
				if code != 200 && code != 503 {
					t.Errorf("ingest status %d: %s", code, body)
					return
				}
				if code == 503 {
					r-- // overloaded: retry the batch
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(t, ts.URL+"/sample/cp")
				get(t, ts.URL+"/weight/cp")
				get(t, ts.URL+"/samplers")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	code, body := get(t, ts.URL+"/sample/cp")
	wantStatus(t, code, 200, body)
	inst, _ := s.Get("cp")
	count, _, _, _ := inst.Stats()
	if want := uint64(producers * rounds * perBatch); count != want {
		t.Fatalf("final count %d, want %d", count, want)
	}
}
