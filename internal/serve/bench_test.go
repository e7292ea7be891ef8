package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slidingsample/internal/stream"
)

// benchSpec is the workload substrate for the HTTP load benchmarks:
// seq-mode so concurrent producers cannot race the timestamp clock.
var benchSpec = Spec{Mode: "seq", Sampler: "sharded-weighted-wor", N: 4096, K: 16, G: 4, Seed: 5}

const benchBatch = 100

func benchBody(i int) string {
	var sb strings.Builder
	sb.WriteString(`{"values":[`)
	for j := 0; j < benchBatch; j++ {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"b%d-i%d"`, i, j)
	}
	sb.WriteString(`],"weights":[`)
	for j := 0; j < benchBatch; j++ {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d.5", (i+j)%9+1)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// benchServer builds a fresh registry + HTTP server.
func benchServer(b *testing.B) (*httptest.Server, *http.Client) {
	b.Helper()
	s := NewServer()
	if _, err := s.Register("bench", benchSpec); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	b.Cleanup(func() { ts.Close(); s.Close() })
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return ts, client
}

// benchClients runs fn once per client count.
func benchClients(b *testing.B, fn func(b *testing.B, clients int)) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			fn(b, clients)
		})
	}
}

// BenchmarkHTTPIngest measures concurrent batched ingest through the real
// HTTP stack: b.N batches of benchBatch weighted values split across the
// client goroutines. 503 responses are retried (they are part of the
// staging queue's contract, not an error).
func BenchmarkHTTPIngest(b *testing.B) {
	benchClients(b, func(b *testing.B, clients int) {
		ts, client := benchServer(b)
		var next atomic.Int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= b.N {
						return
					}
					body := benchBody(i)
					for {
						resp, err := client.Post(ts.URL+"/ingest/bench", "application/json", strings.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						code := resp.StatusCode
						resp.Body.Close()
						if code == http.StatusServiceUnavailable {
							continue
						}
						if code != http.StatusOK {
							b.Errorf("ingest status %d", code)
							return
						}
						break
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkHTTPQuery measures /sample latency at several client counts over
// a prefilled instance, with one background producer keeping ingest hot —
// the serving mix the lock split targets.
func BenchmarkHTTPQuery(b *testing.B) {
	benchClients(b, func(b *testing.B, clients int) {
		ts, client := benchServer(b)
		for i := 0; i < 8; i++ {
			resp, err := client.Post(ts.URL+"/ingest/bench", "application/json", strings.NewReader(benchBody(i)))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
		stop := make(chan struct{})
		var producer sync.WaitGroup
		producer.Add(1)
		go func() {
			defer producer.Done()
			for i := 8; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/ingest/bench", "application/json", strings.NewReader(benchBody(i)))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
		var next atomic.Int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if int(next.Add(1))-1 >= b.N {
						return
					}
					resp, err := client.Get(ts.URL + "/sample/bench")
					if err != nil {
						b.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						b.Errorf("sample status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		close(stop)
		producer.Wait()
	})
}

// wireBenchBody renders n events in the shape swperf's generators send:
// short [a-z0-9] keys, a bursty clock, small integral weights.
func wireBenchBody(n int, ndjson bool) []byte {
	var b strings.Builder
	if !ndjson {
		b.WriteString(`{"values":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"k%x"`, i*2654435761%1000003)
		}
		b.WriteString(`],"timestamps":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", 1700000000+i/50)
		}
		b.WriteString(`],"weights":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", i%9+1)
		}
		b.WriteString(`]}`)
		return []byte(b.String())
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"value":"k%x","weight":%d}`+"\n", i*2654435761%1000003, i%9+1)
	}
	return []byte(b.String())
}

// BenchmarkIngestDecode times the request-decode rung alone: one ingest body
// through decodeIngestBody, as the handler runs it.
func BenchmarkIngestDecode(b *testing.B) {
	for _, tc := range []struct {
		name   string
		n      int
		ndjson bool
	}{{"json-200", 200, false}, {"ndjson-1000", 1000, true}} {
		body := wireBenchBody(tc.n, tc.ndjson)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/ingest/bench", strings.NewReader(string(body)))
				if tc.ndjson {
					req.Header.Set("Content-Type", "application/x-ndjson")
				}
				if _, _, err := decodeIngestBody(req, IngestRequest{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALEncode times the WAL-encode rung alone: one 200-event weighted
// timestamped batch rendered as Record lines.
func BenchmarkWALEncode(b *testing.B) {
	elems := make([]stream.Element[string], 200)
	weights := make([]float64, len(elems))
	for i := range elems {
		elems[i] = stream.Element[string]{Value: fmt.Sprintf("k%x", i*2654435761%1000003), TS: int64(1700000000 + i/50)}
		weights[i] = float64(i%9 + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeWALBatch(elems, weights, true); err != nil {
			b.Fatal(err)
		}
	}
}
