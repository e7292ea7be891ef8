package main

import (
	"strconv"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

type kind uint8

const (
	ingestReq kind = iota
	queryReq
)

// request is one generated HTTP request. The server receives only body and
// path; the batch rides along so a replay can feed the same events to an
// in-process reference.
type request struct {
	kind   kind
	path   string
	ndjson bool
	body   []byte // nil when the plan was built for replay
	b      batch
	seq    int    // ingest: position in the workload's ingest sequence
	tenant string // fabric workloads: the tenant the request targets
	due    time.Time
}

// source is one deterministic request sequence with its nominal rate. Its
// requests arrive as a Poisson process: the gaps between due times are
// exponential with mean 1/rate, drawn from the run seed, so independent
// sources never phase-lock (two sources at one fixed rate would have every
// query land on the heels of an ingest).
type source struct {
	rate float64 // requests per second in the open-loop phases
	gaps *xrand.Rand
	next func() request
}

func newSource(seed uint64, name string, rate float64, next func() request) *source {
	return &source{rate: rate, gaps: xrand.New(subSeed(seed, name+"/gaps")), next: next}
}

// gap draws the time to the source's next due request, in seconds.
func (s *source) gap() float64 { return s.gaps.ExpFloat64() / s.rate }

// group is a set of sources served by lanes connections. Requests from a
// group's sources are merged in due-time order; the lanes take them first
// come, first served.
type group struct {
	lanes   int
	sources []*source
	// openAtPeak keeps the group on its nominal schedule through the peak
	// phase instead of going closed-loop.
	openAtPeak bool
	dueAt      []float64 // per source, its next request's due offset in the current phase, in seconds
}

// due returns the source whose next request is due first, and that
// request's due offset from the phase start.
func (g *group) due() (int, time.Duration) {
	best := 0
	for i := range g.dueAt {
		if g.dueAt[i] < g.dueAt[best] {
			best = i
		}
	}
	return best, time.Duration(g.dueAt[best] * float64(time.Second))
}

// take draws the group's next request and returns it with its due offset.
func (g *group) take() (request, time.Duration) {
	i, off := g.due()
	g.dueAt[i] += g.sources[i].gap()
	return g.sources[i].next(), off
}

func (g *group) startPhase() {
	g.dueAt = make([]float64, len(g.sources))
	for i, s := range g.sources {
		g.dueAt[i] = s.gap()
	}
}

// plan is a workload's request sequences for one run. ingest is the one
// source that carries ingest batches; a replay regenerates it alone.
type plan struct {
	groups []*group
	ingest *source
}

// workload is one traffic mix against one swserve configuration.
type workload struct {
	name    string
	target  string     // sampler or fabric name on the server
	spec    serve.Spec // Seed is set per run
	fabric  bool
	durable bool
	// prefill is the number of events ingested closed-loop before the
	// warm-up, so queries run against a full window from the first one.
	prefill int
	// checks are the query paths whose final answers must match the
	// in-process replay byte for byte (named workloads).
	checks []string
	plan   func(seed uint64, encode bool) *plan
}

// serverArgs are swserve's flags for the workload, minus -addr.
func (w *workload) serverArgs(seed uint64, stateDir string) []string {
	sp := w.spec
	args := []string{"-name", w.target, "-mode", sp.Mode, "-sampler", sp.Sampler,
		"-k", strconv.Itoa(sp.K), "-seed", strconv.FormatUint(seed, 10)}
	if sp.N > 0 {
		args = append(args, "-n", strconv.FormatUint(sp.N, 10))
	}
	if sp.T0 > 0 {
		args = append(args, "-t0", strconv.FormatInt(sp.T0, 10))
	}
	if sp.G > 0 {
		args = append(args, "-g", strconv.Itoa(sp.G))
	}
	if w.fabric {
		args = append(args, "-fabric", "-max-tenants", strconv.Itoa(maxTenants))
	}
	if w.durable {
		args = append(args, "-state-dir", stateDir, "-snapshot-interval", "0")
	}
	return args
}

// Nominal open-loop rates, set once on a 2-vCPU box to between a quarter
// and two fifths of each workload's closed-loop peak (README.md
// "Calibration"). They are fixed on purpose: a benchmark that calibrated
// itself at run time would hide the regressions it exists to show.
const (
	flowsIngestRate = 500 // batches of 200: 100k events/s
	flowsQueryRate  = 60  // queries/s: the dashboards beside the exporters
	bulkIngestRate  = 100 // batches of 1000: 100k events/s
	// bulkQueryRate: bulk-ndjson stands for pure ingest, but every workload
	// must report every end-to-end metric, query_p50_ms included. So it
	// carries the query stream of flows-durable, whose WAL-off control it
	// is: the same rate, round-robin over /sample and /weight.
	bulkQueryRate     = flowsQueryRate
	fanoutIngestRate  = 100  // batches of 200: 20k events/s
	fanoutQueryRate   = 500  // queries/s on one connection; at 1000 a slow spell on the box saturated it
	tenantRequestRate = 4000 // requests/s, 90% ingest
)

const (
	numTenants = 100_000
	maxTenants = 200_000
	// ackLead is how many requests earlier a tenant's first ingest must have
	// been generated before the tenant may be queried.
	ackLead = 64
)

var workloads = []*workload{
	{
		name: "flows-durable", target: "flows", durable: true,
		spec:   serve.Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 60, G: 4, K: 16, Weight: "bytes"},
		checks: []string{"/sample/flows", "/weight/flows", "/size/flows"},
		plan: func(seed uint64, encode bool) *plan {
			r := xrand.New(subSeed(seed, "flows/ingest"))
			ing := ingestSource(seed, "flows/ingest", flowsIngestRate, "/ingest/flows", false, encode, &batchGen{
				size: 200, key: zipfKeys(r, "f", 1.1, 1<<20), weight: byteWeights(r, 1500),
				arrive: stream.NewBurstyArrivals(r, 1000, 1.5),
			})
			q := cycleQueries(seed, "flows/queries", flowsQueryRate, "/sample/flows", "/weight/flows", "/size/flows")
			return &plan{groups: []*group{{lanes: 1, sources: []*source{ing}}, {lanes: 1, sources: []*source{q}}}, ingest: ing}
		},
	},
	{
		name: "bulk-ndjson", target: "bulk",
		spec:   serve.Spec{Mode: "seq", Sampler: "sharded-weighted-wor", N: 65536, G: 4, K: 16, Weight: "bytes"},
		checks: []string{"/sample/bulk", "/weight/bulk"},
		plan: func(seed uint64, encode bool) *plan {
			r := xrand.New(subSeed(seed, "bulk/ingest"))
			ing := ingestSource(seed, "bulk/ingest", bulkIngestRate, "/ingest/bulk", true, encode, &batchGen{
				size: 1000, key: uniformKeys(r, "r", 1<<30), weight: intWeights(r, 100),
			})
			q := cycleQueries(seed, "bulk/queries", bulkQueryRate, "/sample/bulk", "/weight/bulk")
			return &plan{groups: []*group{{lanes: 2, sources: []*source{ing, q}}}, ingest: ing}
		},
	},
	{
		name: "query-fanout", target: "qf", prefill: 1_000_000,
		spec:   serve.Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 3600, G: 8, K: 64, Weight: "bytes"},
		checks: []string{"/sample/qf", "/weight/qf", "/size/qf"},
		plan: func(seed uint64, encode bool) *plan {
			r := xrand.New(subSeed(seed, "qf/ingest"))
			ing := ingestSource(seed, "qf/ingest", fanoutIngestRate, "/ingest/qf", false, encode, &batchGen{
				size: 200, key: zipfKeys(r, "k", 1.1, 1<<16), weight: intWeights(r, 1000),
				arrive: stream.NewBurstyArrivals(r, 200, 1.5),
			})
			qr := xrand.New(subSeed(seed, "qf/queries"))
			paths := []string{"/sample/qf", "/sample/qf", "/weight/qf", "/size/qf"}
			q := newSource(seed, "qf/queries", fanoutQueryRate, func() request {
				return request{kind: queryReq, path: paths[qr.Uint64n(uint64(len(paths)))]}
			})
			return &plan{groups: []*group{{lanes: 1, sources: []*source{ing}, openAtPeak: true}, {lanes: 1, sources: []*source{q}}}, ingest: ing}
		},
	},
	{
		name: "tenants-zipf", target: "users", fabric: true,
		spec: serve.Spec{Mode: "seq", Sampler: "weighted-wor", N: 4096, K: 8, G: 4, Weight: "bytes"},
		plan: func(seed uint64, encode bool) *plan {
			ts := tenantSource(seed, encode)
			return &plan{groups: []*group{{lanes: 2, sources: []*source{ts}}}, ingest: ts}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func ingestSource(seed uint64, name string, rate float64, path string, ndjson, encode bool, g *batchGen) *source {
	seq := 0
	return newSource(seed, name, rate, func() request {
		rq := request{kind: ingestReq, path: path, ndjson: ndjson, b: g.next(), seq: seq}
		seq++
		if encode {
			rq.body = encodeBatch(rq.b, ndjson)
		}
		return rq
	})
}

func encodeBatch(b batch, ndjson bool) []byte {
	if ndjson {
		return appendNDJSON(nil, b)
	}
	return appendJSON(nil, b)
}

// cycleQueries issues the paths round-robin.
func cycleQueries(seed uint64, name string, rate float64, paths ...string) *source {
	i := 0
	return newSource(seed, name, rate, func() request {
		p := paths[i%len(paths)]
		i++
		return request{kind: queryReq, path: p}
	})
}

// tenantSource is tenants-zipf's one mixed sequence: 90% ingest batches of
// 16 for a Zipf(1.1)-drawn tenant out of numTenants, 10% samples of a
// Zipf-drawn tenant whose first batch was generated at least ackLead
// requests earlier (a draw that finds none falls back to an ingest).
func tenantSource(seed uint64, encode bool) *source {
	r := xrand.New(subSeed(seed, "tenants"))
	pick := xrand.NewZipf(r, 1.1, numTenants)
	g := &batchGen{size: 16, key: uniformKeys(r, "e", 1<<20), weight: intWeights(r, 9)}
	ids := make([]string, numTenants)
	first := make([]int, numTenants)
	for i := range ids {
		ids[i] = "t" + strconv.Itoa(i)
		first[i] = -1
	}
	n, seq := 0, 0
	return newSource(seed, "tenants", tenantRequestRate, func() request {
		j := n
		n++
		if r.Uint64n(10) == 0 {
			for try := 0; try < 8; try++ {
				if t := pick.Next(); first[t] >= 0 && j-first[t] >= ackLead {
					return request{kind: queryReq, path: "/tenant/users/" + ids[t] + "/sample", tenant: ids[t]}
				}
			}
		}
		t := pick.Next()
		if first[t] < 0 {
			first[t] = j
		}
		rq := request{kind: ingestReq, path: "/tenant/users/" + ids[t] + "/ingest", b: g.next(), seq: seq, tenant: ids[t]}
		seq++
		if encode {
			rq.body = appendJSON(nil, rq.b)
		}
		return rq
	})
}
