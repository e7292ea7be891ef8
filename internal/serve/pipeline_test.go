package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
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

// TestPipelineMatchesDirectSamplers is the serving layer's determinism
// regression: every response to a fixed sequential request script —
// batched ingest, then /sample, /size and /weight on every instance — is
// byte-identical to what the same spec built by substrate.New answers when
// fed the same batches directly. Staging, the applier and the inline shard
// queries add plumbing, never randomness or reordering; the check covers
// all four sharded weighted substrates and the sharded uniform ones, whose
// shard-local rngs also draw at query time.
func TestPipelineMatchesDirectSamplers(t *testing.T) {
	names := []string{"wtswor", "wtswr", "wseqwor", "wseqwr", "utswr", "utswor"}
	s := NewServer()
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	insts := make(map[string]*Instance, len(names))
	direct := make(map[string]any, len(names))
	for _, name := range names {
		inst, err := s.Register(name, pipelineSpecs[name])
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		built, _, err := substrate.New(pipelineSpecs[name])
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		defer built.(interface{ Close() }).Close()
		insts[name], direct[name] = inst, built
	}
	render := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	unsupported := render(errResponse{Error: ErrUnsupported.Error()})
	check := func(what string, code int, body string, wantCode int, want string) {
		t.Helper()
		if code != wantCode || body != want {
			t.Fatalf("%s: served %d %s, direct sampler %d %s", what, code, body, wantCode, want)
		}
	}

	now := int64(0)
	idx := 0
	for round := 0; round < 8; round++ {
		// Pin every application lock while the round's batches are posted
		// (admission needs only qmu), so they all stage and one drain
		// applies several batches: the order the queue must keep.
		func() {
			for _, name := range names {
				insts[name].mu.Lock()
				defer insts[name].mu.Unlock()
			}
			for batchNo := 0; batchNo < 3; batchNo++ {
				var vals []string
				var tstamps []int64
				var weights []float64
				for i := 0; i < 5+batchNo*3; i++ {
					if i%4 != 3 {
						now++
					}
					vals = append(vals, fmt.Sprintf("v%d", idx))
					tstamps = append(tstamps, now)
					weights = append(weights, float64(idx%9+1)+0.25)
					idx++
				}
				for _, name := range names {
					spec := pipelineSpecs[name]
					req := IngestRequest{Values: vals}
					batch := make([]stream.Element[string], len(vals))
					for i, v := range vals {
						batch[i] = stream.Element[string]{Value: v}
					}
					if spec.Mode == "ts" {
						req.Timestamps = tstamps
						for i := range batch {
							batch[i].TS = tstamps[i]
						}
					}
					d := direct[name].(ingester)
					if strings.Contains(spec.Sampler, "weighted") {
						req.Weights = weights
						direct[name].(weightedIngester).ObserveWeightedBatch(batch, weights)
					} else {
						d.ObserveBatch(batch)
					}
					code, body := post(t, ts.URL+"/ingest/"+name, render(req))
					check("ingest "+name, code, body, 200, render(IngestResponse{Ingested: len(vals), Count: d.Count()}))
				}
			}
		}()
		for _, name := range names {
			d := direct[name]
			seq := pipelineSpecs[name].Mode == "seq"
			clock := now // the stream clock each query resolves to
			if seq {
				clock = 0
			}

			d.(interface{ Barrier() }).Barrier()
			var es []stream.Element[string]
			var ok bool
			if seq {
				es, ok = d.(stream.Sampler[string]).Sample()
			} else {
				es, ok = d.(stream.TimedSampler[string]).SampleAt(clock)
			}
			resp := SampleResponse{OK: ok}
			for _, e := range es {
				resp.Sample = append(resp.Sample, SampledElement{Value: e.Value, Index: e.Index, TS: e.TS})
			}
			code, body := get(t, ts.URL+"/sample/"+name)
			check("sample "+name, code, body, 200, render(resp))

			wantCode, want := 400, unsupported
			if sz, ok := d.(interface{ SizeAt(int64) uint64 }); ok {
				wantCode, want = 200, render(map[string]uint64{"size": sz.SizeAt(clock)})
			}
			code, body = get(t, ts.URL+"/size/"+name)
			check("size "+name, code, body, wantCode, want)

			wantCode, want = 400, unsupported
			switch w := d.(type) {
			case interface{ TotalWeightAt(int64) float64 }:
				wantCode, want = 200, render(map[string]float64{"weight": w.TotalWeightAt(clock)})
			case interface{ TotalWeight() float64 }:
				wantCode, want = 200, render(map[string]float64{"weight": w.TotalWeight()})
			}
			code, body = get(t, ts.URL+"/weight/"+name)
			check("weight "+name, code, body, wantCode, want)
		}
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
