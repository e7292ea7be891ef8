package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
)

// Sizes of the per-layer ladder, before -scale.
const (
	ladderEvents  = 200_000   // events replayed through each ingest rung
	recoverEvents = 1_000_000 // events in the WAL the recovery rung replays
	fabricBatches = 50_000    // tenants-zipf batches through the fabric rungs
	ladderQueries = 1000      // calls per query rung
)

type weightedBatcher interface {
	ObserveWeightedBatch(batch []stream.Element[string], weights []float64)
}

// ladderRun replays one workload's generated batches through each layer's
// public entry point, lowest layer first. A layer's self time is the
// difference between two rungs fed the same batches: dealing is parallel
// minus substrate, decode is handler minus instance, the WAL is statedir
// minus instance.
type ladderRun struct {
	b       *bench
	w       *workload
	parent  int
	batches []batch
	events  int
	at      int64      // query time on timestamp windows: the last timestamp
	flat    serve.Spec // the workload's substrate without sharding
	sharded serve.Spec // the workload's substrate sharded (G=4 if it was not)
	sample  []stream.Element[string]
}

func (b *bench) ladder(w *workload, root int) error {
	lr := &ladderRun{b: b, w: w, parent: b.tr.open(root, "ladder")}
	defer b.tr.close(lr.parent)
	src := w.plan(b.seed, false).ingest
	for lr.events < b.scaled(ladderEvents) {
		if rq := src.next(); rq.kind == ingestReq {
			lr.batches = append(lr.batches, rq.b)
			lr.events += len(rq.b.values)
		}
	}
	if ts := lr.batches[len(lr.batches)-1].ts; ts != nil {
		lr.at = ts[len(ts)-1]
	}
	seed := subSeed(b.seed, "ladder")
	lr.flat, lr.sharded = w.spec, w.spec
	lr.flat.Sampler, lr.flat.G, lr.flat.Seed = strings.TrimPrefix(w.spec.Sampler, "sharded-"), 0, seed
	lr.sharded.Sampler, lr.sharded.Seed = "sharded-"+lr.flat.Sampler, seed
	if lr.sharded.G == 0 {
		lr.sharded.G = 4
	}
	for _, rung := range []func() error{lr.substrate, lr.parallel, lr.instance, lr.statedir, lr.recovery, lr.handler, lr.fabric} {
		if err := rung(); err != nil {
			return fmt.Errorf("%s: ladder: %w", w.name, err)
		}
	}
	return nil
}

func (lr *ladderRun) metric(name string, v float64, n int) { lr.b.rep.metric(lr.w.name, name, v, n) }

// timing is one rung's measurement.
type timing struct {
	total  time.Duration
	per    []time.Duration // per call, in call order
	allocs float64         // heap allocations per call
}

func (t timing) nsPer(n int) float64 { return float64(t.total.Nanoseconds()) / float64(n) }

func (t timing) quantileUS(q float64) float64 {
	s := slices.Clone(t.per)
	sortDurations(s)
	return us(quantile(s, q))
}

// run times n calls of call and then finish, as one rung span with a child
// span per call.
func (lr *ladderRun) run(rung, callName string, n int, call func(i int) error, finish func()) (timing, error) {
	per := make([]time.Duration, n)
	starts := make([]time.Time, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	for i := range per {
		starts[i] = now()
		if err := call(i); err != nil {
			return timing{}, fmt.Errorf("%s call %d: %w", rung, i, err)
		}
		per[i] = now().Sub(starts[i])
	}
	if finish != nil {
		finish()
	}
	end := now()
	runtime.ReadMemStats(&m1)
	lr.b.rep.attempted += n
	id := lr.b.tr.add(lr.parent, rung, start, end)
	for i := range per {
		lr.b.tr.add(id, callName, starts[i], starts[i].Add(per[i]))
	}
	return timing{total: end.Sub(start), per: per, allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}, nil
}

// settledHeap reads the memory stats after two collections: sync.Pool
// caches survive the first one.
func settledHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// elements converts the batches to fresh element slices for the substrate
// entry points.
func (lr *ladderRun) elements() [][]stream.Element[string] {
	out := make([][]stream.Element[string], len(lr.batches))
	for i, b := range lr.batches {
		out[i] = elementsOf(b)
	}
	return out
}

func elementsOf(b batch) []stream.Element[string] {
	out := make([]stream.Element[string], len(b.values))
	for i, v := range b.values {
		out[i].Value = v
		if b.ts != nil {
			out[i].TS = b.ts[i]
		}
	}
	return out
}

// buildWeighted builds spec's substrate through substrate.New, the entry
// point the serving layer uses, and returns its explicit-weight ingest.
func buildWeighted(spec serve.Spec) (weightedBatcher, any, error) {
	built, _, err := substrate.New(spec)
	if err != nil {
		return nil, nil, err
	}
	wb, ok := built.(weightedBatcher)
	if !ok {
		closeBuilt(built)
		return nil, nil, fmt.Errorf("substrate %s takes no explicit weights", spec.Sampler)
	}
	return wb, built, nil
}

func closeBuilt(built any) {
	if c, ok := built.(interface{ Close() }); ok {
		c.Close()
	}
}

// observe times ObserveWeightedBatch over the batches, plus the final
// barrier of a sharded substrate, on a fresh substrate built from spec at
// GOMAXPROCS 1 and 2. It returns the substrate the second pass filled.
func (lr *ladderRun) observe(layer string, spec serve.Spec) (any, error) {
	var filled any
	for _, gmp := range []int{1, 2} {
		err := withProcs(gmp, func() error {
			wb, built, err := buildWeighted(spec)
			if err != nil {
				return err
			}
			var barrier func()
			if b, ok := built.(interface{ Barrier() }); ok {
				barrier = b.Barrier
			}
			elems := lr.elements()
			t, err := lr.run(fmt.Sprintf("%s.ingest.gmp%d", layer, gmp), layer+".ObserveWeightedBatch", len(elems), func(i int) error {
				wb.ObserveWeightedBatch(elems[i], lr.batches[i].weights)
				return nil
			}, barrier)
			if err != nil {
				closeBuilt(built)
				return err
			}
			lr.metric(fmt.Sprintf("%s.ingest_ns_per_event.gmp%d", layer, gmp), t.nsPer(lr.events), lr.events)
			if gmp == 1 {
				lr.metric(layer+".ingest_allocs_per_batch", t.allocs, len(elems))
				closeBuilt(built)
			} else {
				filled = built
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return filled, nil
}

// substrate: the unsharded sampler's ObserveWeightedBatch.
func (lr *ladderRun) substrate() error {
	built, err := lr.observe("substrate", lr.flat)
	closeBuilt(built)
	return err
}

// parallel: sharded dealing plus the final barrier, then the sharded
// queries (barrier and per-shard fan-out) on the filled sampler.
func (lr *ladderRun) parallel() error {
	built, err := lr.observe("parallel", lr.sharded)
	if err != nil {
		return err
	}
	defer closeBuilt(built)

	ts := lr.w.spec.Mode == "ts"
	weight := func() float64 { return built.(interface{ TotalWeight() float64 }).TotalWeight() }
	if ts {
		weight = func() float64 { return built.(interface{ TotalWeightAt(int64) float64 }).TotalWeightAt(lr.at) }
	}
	n := lr.b.scaled(ladderQueries)
	for _, gmp := range []int{1, 2} {
		err := withProcs(gmp, func() error {
			t, err := lr.run(fmt.Sprintf("parallel.sample.gmp%d", gmp), "parallel.Barrier+Sample", n, func(int) error {
				es, ok := sampleOf(built, ts, lr.at)
				if !ok {
					return errors.New("empty sample")
				}
				lr.sample = es
				return nil
			}, nil)
			if err != nil {
				return err
			}
			lr.metric(fmt.Sprintf("parallel.sample_p50_us.gmp%d", gmp), t.quantileUS(0.5), n)
			lr.metric(fmt.Sprintf("parallel.sample_p99_us.gmp%d", gmp), t.quantileUS(0.99), n)
			return nil
		})
		if err != nil {
			return err
		}
	}
	t, err := lr.run("parallel.weight", "parallel.TotalWeight", n, func(int) error {
		if !(weight() > 0) {
			return errors.New("no active weight")
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	lr.metric("parallel.weight_us", t.quantileUS(0.5), n)
	return nil
}

// ingestCall returns a rung call that admits batch i into inst, counting
// admissions refused by a full staging queue (and retried) in refused.
func (lr *ladderRun) ingestCall(inst *serve.Instance, attempts, refused *int) func(int) error {
	return func(i int) error {
		b := lr.batches[i]
		for {
			*attempts++
			_, err := inst.Ingest(b.values, b.ts, b.weights)
			if !errors.Is(err, serve.ErrOverloaded) {
				return err
			}
			*refused++
			runtime.Gosched()
		}
	}
}

// drain applies everything admitted (Stats drains the staging queue and
// barriers the shards).
func drain(inst *serve.Instance) func() { return func() { inst.Stats() } }

// instance: Instance admission, staging queue and applier, without a WAL;
// then the Instance queries.
func (lr *ladderRun) instance() error {
	for _, gmp := range []int{1, 2} {
		err := withProcs(gmp, func() error {
			inst, err := serve.Build(lr.sharded)
			if err != nil {
				return err
			}
			defer inst.Close()
			var attempts, refused int
			t, err := lr.run(fmt.Sprintf("serve.instance.ingest.gmp%d", gmp), "serve.Instance.Ingest", len(lr.batches), lr.ingestCall(inst, &attempts, &refused), drain(inst))
			if err != nil {
				return err
			}
			lr.metric(fmt.Sprintf("serve.instance.ingest_ns_per_event.gmp%d", gmp), t.nsPer(lr.events), lr.events)
			if gmp == 1 {
				return nil
			}
			lr.metric("serve.instance.ingest_p50_us", t.quantileUS(0.5), len(t.per))
			lr.metric("serve.instance.ingest_p99_us", t.quantileUS(0.99), len(t.per))
			lr.metric("serve.instance.refused_ratio", float64(refused)/float64(attempts), attempts)
			return lr.instanceQueries(inst)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (lr *ladderRun) instanceQueries(inst *serve.Instance) error {
	n := lr.b.scaled(ladderQueries)
	var got []stream.Element[string]
	t, err := lr.run("serve.instance.sample", "serve.Instance.Sample", n, func(int) error {
		es, _, err := inst.Sample(nil)
		got = es
		return err
	}, nil)
	if err != nil {
		return err
	}
	lr.metric("serve.instance.sample_us", t.quantileUS(0.5), n)
	if !slices.Equal(got, lr.sample) {
		lr.b.rep.problem(lr.w.name, "Instance.Sample differs from the sharded substrate's sample over the same batches")
	}
	t, err = lr.run("serve.instance.weight", "serve.Instance.Weight", n, func(int) error {
		_, err := inst.Weight(nil)
		return err
	}, nil)
	if err != nil {
		return err
	}
	lr.metric("serve.instance.weight_us", t.quantileUS(0.5), n)
	return nil
}

func (lr *ladderRun) tempDir(name string) (string, error) {
	dir := filepath.Join(lr.b.buildDir, name)
	return dir, os.RemoveAll(dir)
}

func fileSize(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// statedir: Instance ingest with the WAL appended before each ack, then
// snapshots of the filled instance.
func (lr *ladderRun) statedir() error {
	dir, err := lr.tempDir("ladder-state")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sd, err := serve.OpenStateDir(dir)
	if err != nil {
		return err
	}
	inst, err := serve.Build(lr.sharded)
	if err != nil {
		return err
	}
	defer inst.Close()
	if err := sd.Enable("ladder", inst); err != nil {
		return err
	}
	var attempts, refused int
	t, err := lr.run("serve.statedir.ingest", "serve.Instance.Ingest+WAL", len(lr.batches), lr.ingestCall(inst, &attempts, &refused), drain(inst))
	if err != nil {
		return err
	}
	lr.metric("serve.statedir.ingest_ns_per_event", t.nsPer(lr.events), lr.events)
	walBytes, err := fileSize(filepath.Join(dir, "ladder.wal"))
	if err != nil {
		return err
	}
	lr.metric("serve.statedir.wal_bytes_per_event", walBytes/float64(lr.events), lr.events)
	var snaps []float64
	for i := 0; i < 3; i++ {
		t, err := lr.run("serve.statedir.snapshot", "serve.StateDir.WriteSnapshot", 1, func(int) error {
			return sd.WriteSnapshot("ladder", inst)
		}, nil)
		if err != nil {
			return err
		}
		snaps = append(snaps, ms(t.total))
	}
	lr.metric("serve.statedir.snapshot_ms", median(snaps), len(snaps))
	snapBytes, err := fileSize(filepath.Join(dir, "ladder.snap"))
	if err != nil {
		return err
	}
	lr.metric("serve.statedir.snapshot_bytes", snapBytes, 0)
	return nil
}

// recovery: StateDir.Recover over a WAL of a fixed number of events; the
// recovered instance must sample exactly as the one that wrote the WAL.
func (lr *ladderRun) recovery() error {
	dir, err := lr.tempDir("ladder-recover")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sd, err := serve.OpenStateDir(dir)
	if err != nil {
		return err
	}
	inst, err := serve.Build(lr.sharded)
	if err != nil {
		return err
	}
	if err := sd.Enable("ladder", inst); err != nil {
		inst.Close()
		return err
	}
	src := lr.w.plan(lr.b.seed, false).ingest
	events := 0
	for events < lr.b.scaled(recoverEvents) {
		rq := src.next()
		if rq.kind != ingestReq {
			continue
		}
		if err := ingestInstance(inst, rq.b); err != nil {
			inst.Close()
			return err
		}
		events += len(rq.b.values)
	}
	want, _, err := inst.Sample(nil)
	inst.Close()
	if err != nil {
		return err
	}
	recovered := serve.NewServer()
	defer recovered.Close()
	t, err := lr.run("serve.statedir.recover", "serve.StateDir.Recover", 1, func(int) error {
		sd, err := serve.OpenStateDir(dir)
		if err != nil {
			return err
		}
		_, err = sd.Recover(recovered)
		return err
	}, nil)
	if err != nil {
		return err
	}
	lr.metric("serve.statedir.recover_ns_per_event", t.nsPer(events), events)
	got, ok := recovered.Get("ladder")
	if !ok {
		return errors.New("recovery did not restore the instance")
	}
	if es, _, err := got.Sample(nil); err != nil || !slices.Equal(es, want) {
		lr.b.rep.problem(lr.w.name, "the recovered instance samples differently from the one that wrote the WAL (%v)", err)
	}
	return nil
}

// handler: Server.ServeHTTP with JSON and with NDJSON bodies — routing,
// decode and response encode — then the query handlers. Every pass must
// end with the same /sample answer.
func (lr *ladderRun) handler() error {
	var answers [][]byte
	for _, ndjson := range []bool{false, true} {
		format := "json"
		if ndjson {
			format = "ndjson"
		}
		bodies := make([][]byte, len(lr.batches))
		for i, b := range lr.batches {
			bodies[i] = encodeBatch(b, ndjson)
		}
		for _, gmp := range []int{1, 2} {
			err := withProcs(gmp, func() error {
				srv := serve.NewServer()
				defer srv.Close()
				inst, err := srv.Register("ladder", lr.sharded)
				if err != nil {
					return err
				}
				post := func(i int) (*httptest.ResponseRecorder, *http.Request) {
					req := httptest.NewRequest(http.MethodPost, "/ingest/ladder", bytes.NewReader(bodies[i]))
					if ndjson {
						req.Header.Set("Content-Type", "application/x-ndjson")
					}
					return httptest.NewRecorder(), req
				}
				recs := make([]*httptest.ResponseRecorder, len(bodies))
				reqs := make([]*http.Request, len(bodies))
				for i := range bodies {
					recs[i], reqs[i] = post(i)
				}
				t, err := lr.run(fmt.Sprintf("serve.handler.ingest_%s.gmp%d", format, gmp), "serve.Server.ServeHTTP", len(bodies), func(i int) error {
					srv.ServeHTTP(recs[i], reqs[i])
					for recs[i].Code == http.StatusServiceUnavailable {
						runtime.Gosched()
						recs[i], reqs[i] = post(i)
						srv.ServeHTTP(recs[i], reqs[i])
					}
					if recs[i].Code != http.StatusOK {
						return fmt.Errorf("status %d: %s", recs[i].Code, recs[i].Body.Bytes())
					}
					return nil
				}, drain(inst))
				if err != nil {
					return err
				}
				lr.metric(fmt.Sprintf("serve.handler.ingest_%s_ns_per_event.gmp%d", format, gmp), t.nsPer(lr.events), lr.events)
				if gmp == 1 {
					lr.metric(fmt.Sprintf("serve.handler.ingest_%s_allocs_per_batch", format), t.allocs, len(bodies))
				}
				answers = append(answers, serveGet(srv, "/sample/ladder"))
				if !ndjson && gmp == 2 {
					return lr.handlerQueries(srv)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	for _, a := range answers[1:] {
		if !bytes.Equal(a, answers[0]) {
			lr.b.rep.problem(lr.w.name, "the JSON and NDJSON handler passes end on different samples")
			break
		}
	}
	return nil
}

func serveGet(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

func (lr *ladderRun) handlerQueries(srv *serve.Server) error {
	n := lr.b.scaled(ladderQueries)
	for _, q := range []string{"sample", "weight"} {
		path := "/" + q + "/ladder"
		t, err := lr.run("serve.handler."+q, "serve.Server.ServeHTTP", n, func(int) error {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", path, rec.Code)
			}
			return nil
		}, nil)
		if err != nil {
			return err
		}
		lr.metric("serve.handler."+q+"_us", t.quantileUS(0.5), n)
	}
	return nil
}

// fabric: tenants-zipf's own batches through Fabric.Ingest, from one
// goroutine and from two, plus first arrivals, tenant queries and the heap
// cost of a live tenant.
func (lr *ladderRun) fabric() error {
	tw := workloadByName("tenants-zipf")
	src := tw.plan(lr.b.seed, false).ingest
	var reqs []request
	first := make(map[int]bool)
	seen := make(map[string]bool)
	for len(reqs) < lr.b.scaled(fabricBatches) {
		if rq := src.next(); rq.kind == ingestReq {
			if !seen[rq.tenant] {
				seen[rq.tenant] = true
				first[len(reqs)] = true
			}
			reqs = append(reqs, rq)
		}
	}
	spec := tw.spec
	spec.Seed = subSeed(lr.b.seed, "ladder/fabric")
	ingest := func(f *serve.Fabric, i int) error {
		_, err := f.Ingest(reqs[i].tenant, reqs[i].b.values, reqs[i].b.ts, reqs[i].b.weights)
		return err
	}

	err := withProcs(1, func() error {
		f, err := serve.NewFabric(spec, maxTenants)
		if err != nil {
			return err
		}
		t, err := lr.run("serve.fabric.ingest.gmp1", "serve.Fabric.Ingest", len(reqs), func(i int) error { return ingest(f, i) }, nil)
		if err != nil {
			return err
		}
		lr.metric("serve.fabric.ingest_ns_per_batch.gmp1", t.nsPer(len(reqs)), len(reqs))
		var firsts []time.Duration
		for i, d := range t.per {
			if first[i] {
				firsts = append(firsts, d)
			}
		}
		sortDurations(firsts)
		lr.metric("serve.fabric.first_arrival_us", us(quantile(firsts, 0.5)), len(firsts))
		n := lr.b.scaled(ladderQueries)
		t, err = lr.run("serve.fabric.sample", "serve.Fabric.Sample", n, func(i int) error {
			_, _, err := f.Sample(reqs[i%len(reqs)].tenant, nil)
			return err
		}, nil)
		if err != nil {
			return err
		}
		lr.metric("serve.fabric.sample_us", t.quantileUS(0.5), n)
		return nil
	})
	if err != nil {
		return err
	}

	// Two goroutines, each taking every other batch: the registry stripes
	// against one another at two cores.
	err = withProcs(2, func() error {
		f, err := serve.NewFabric(spec, maxTenants)
		if err != nil {
			return err
		}
		starts := make([]time.Time, len(reqs))
		ends := make([]time.Time, len(reqs))
		errs := make([]error, 2)
		var wg sync.WaitGroup
		start := now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(reqs); i += 2 {
					starts[i] = now()
					if err := ingest(f, i); err != nil {
						errs[g] = err
						return
					}
					ends[i] = now()
				}
			}(g)
		}
		wg.Wait()
		end := now()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		lr.b.rep.attempted += len(reqs)
		id := lr.b.tr.add(lr.parent, "serve.fabric.ingest.gmp2", start, end)
		for i := range reqs {
			lr.b.tr.add(id, "serve.Fabric.Ingest", starts[i], ends[i])
		}
		lr.metric("serve.fabric.ingest_ns_per_batch.gmp2", float64(end.Sub(start).Nanoseconds())/float64(len(reqs)), len(reqs))
		return nil
	})
	if err != nil {
		return err
	}

	// Heap growth per live tenant, measured untimed so no timing buffers
	// land in the difference.
	f, err := serve.NewFabric(spec, maxTenants)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	settledHeap(&m0)
	for i := range reqs {
		if err := ingest(f, i); err != nil {
			return err
		}
	}
	settledHeap(&m1)
	lr.metric("serve.fabric.bytes_per_tenant", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(f.Tenants()), f.Tenants())
	// The batches must stay live through the second reading, or their
	// collection would be subtracted from the fabric's growth.
	runtime.KeepAlive(reqs)
	runtime.KeepAlive(f)
	return nil
}
