package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
	"slidingsample/internal/xrand"
)

// tenantBenchSpec is the fabric template for the multi-tenant benchmarks:
// seq-mode (concurrent producers cannot race a timestamp clock) weighted
// sampling with a small fixed k — the per-tenant state block the slab and
// budget math are sized around.
var tenantBenchSpec = Spec{Mode: "seq", Sampler: "weighted-wor", N: 4096, K: 8, Seed: 5}

// naiveFabric is the BENCH_6 "before": one mutex over one tenant map, a
// fresh element buffer allocated per batch, no striping and no slab. This
// is the obvious first implementation of a keyed registry — every row in
// BenchmarkTenantIngest pairs it with the striped fabric at an equal
// workload.
type naiveFabric struct {
	spec Spec
	mu   sync.Mutex
	m    map[string]*tenant
}

func newNaiveFabric(spec Spec) *naiveFabric {
	resolved := spec
	resolved.Seed = substrate.ResolveSeed(spec.Seed)
	return &naiveFabric{spec: resolved, m: make(map[string]*tenant)}
}

func (nf *naiveFabric) ingest(id string, values []string, weights []float64) (uint64, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	tn := nf.m[id]
	if tn == nil {
		spec := nf.spec
		spec.Seed = xrand.TenantSeed(nf.spec.Seed, id)
		built, _, err := substrate.New(spec)
		if err != nil {
			return 0, err
		}
		tn = &tenant{ing: built.(ingester)}
		nf.m[id] = tn
	}
	elems := make([]stream.Element[string], len(values))
	for i, v := range values {
		elems[i] = stream.Element[string]{Value: v}
	}
	return tn.apply(true, elems, weights, 0, 0)
}

// BenchmarkTenantIngest measures steady-state multi-tenant ingest: b.N
// batches round-robined across a pre-created tenant population, split over
// the client goroutines. naive serializes every batch behind one mutex and
// allocates fresh scratch; fabric rides the striped registry and the slab
// pool. The events/s delta is the tentpole's throughput claim.
func BenchmarkTenantIngest(b *testing.B) {
	const batchSize = 16
	vals := make([]string, batchSize)
	ws := make([]float64, batchSize)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
		ws[i] = float64(i%9 + 1)
	}
	for _, mode := range []string{"naive", "fabric"} {
		for _, liveTenants := range []int{4096, 100_000} {
			for _, clients := range []int{1, 8} {
				if testing.Short() && liveTenants > 4096 {
					continue // smoke runs skip the large population build
				}
				ids := make([]string, liveTenants)
				for i := range ids {
					ids[i] = fmt.Sprintf("tenant-%d", i)
				}
				b.Run(fmt.Sprintf("%s/tenants=%d/clients=%d", mode, liveTenants, clients), func(b *testing.B) {
					var ingest func(id string) error
					switch mode {
					case "naive":
						nf := newNaiveFabric(tenantBenchSpec)
						ingest = func(id string) error { _, err := nf.ingest(id, vals, ws); return err }
					case "fabric":
						f, err := NewFabric(tenantBenchSpec, 0)
						if err != nil {
							b.Fatal(err)
						}
						ingest = func(id string) error { _, err := f.Ingest(id, vals, nil, ws); return err }
					}
					// Pre-create the whole population so the timed region measures
					// steady-state ingest, not first-arrival construction.
					for _, id := range ids {
						if err := ingest(id); err != nil {
							b.Fatal(err)
						}
					}
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
								if err := ingest(ids[i%liveTenants]); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					b.StopTimer()
					b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "events/s")
				})
			}
		}
	}
}

// BenchmarkTenantFootprint measures bytes per idle tenant: create n tenants
// with one element each, force a GC, and divide the live-heap growth by n.
// It is a one-shot measurement — the population is built once regardless of
// b.N, so the bytes/tenant metric is meaningful at any -benchtime (ns/op is
// not; ignore it). The 1M row is the headline number for the README memory
// table; -short keeps it out of smoke runs.
func BenchmarkTenantFootprint(b *testing.B) {
	for _, mode := range []string{"naive", "fabric"} {
		for _, n := range []int{100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/tenants=%d", mode, n), func(b *testing.B) {
				if testing.Short() && n > 100_000 {
					b.Skip("skipping the 1M-tenant population in -short mode")
				}
				vals := []string{"x"}
				ws := []float64{1}
				var ingest func(id string) error
				var keep any
				switch mode {
				case "naive":
					nf := newNaiveFabric(tenantBenchSpec)
					ingest = func(id string) error { _, err := nf.ingest(id, vals, ws); return err }
					keep = nf
				case "fabric":
					f, err := NewFabric(tenantBenchSpec, 0)
					if err != nil {
						b.Fatal(err)
					}
					ingest = func(id string) error { _, err := f.Ingest(id, vals, nil, ws); return err }
					keep = f
				}
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				for t := 0; t < n; t++ {
					if err := ingest(fmt.Sprintf("tenant-%d", t)); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "bytes/tenant")
				runtime.KeepAlive(keep)
			})
		}
	}
}
