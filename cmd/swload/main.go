// Command swload is the end-to-end load harness for the serving layer: it
// drives concurrent ingest and query traffic through the real HTTP stack
// and reports ingest throughput and query latency percentiles as a JSON
// summary on stdout.
//
// By default the run is hermetic: swload starts an in-process server
// (internal/serve registry behind serve.NewHTTPServer on a loopback
// listener), registers one seq-mode sharded weighted sampler, and measures
// against it — no external process, no ports to coordinate, reproducible in
// CI. With -url it targets a running swserve instead, registering its
// sampler via POST /samplers.
//
// The workload has three phases:
//
//   - ingest: -clients goroutines each POST -batches batches of -batch-size
//     weighted values to /ingest/{name}; 503 (staging queue full) is retried.
//     Reported as events/sec plus request latency percentiles.
//   - query: the same client count issues -queries GET /sample/{name} each;
//     reported as query latency percentiles.
//   - mixed: producers run a second ingest wave while an equal number of
//     query clients alternate GET /sample and GET /weight until the wave
//     ends. This is the phase the lock split exists for — query latency
//     while ingest is hot measures how long reads stall behind writes.
//
// The sampler is seq-mode (sequence window) so concurrent producers cannot
// violate timestamp monotonicity against each other — arrival order IS the
// admission order, whatever interleaving the scheduler picks.
//
// -tenants N switches the workload to the multi-tenant fabric: one fabric
// is registered (any "sharded-" prefix on -sampler is dropped — fabrics
// reject substrates that own goroutines) and every request targets
// /tenant/{fabric}/{id}/... for an id drawn from a Zipf(-tenant-skew)
// distribution over N tenants. The pick sequence is precomputed
// sequentially from the run seed, so the tenant mix is reproducible across
// runs and servers. The mixed wave's readers stick to /sample in tenant
// mode (/weight depends on the template's oracle capability). BENCH_6.json
// pairs tenant-mode rows at increasing N.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/xrand"
)

type phaseSummary struct {
	Requests     int     `json:"requests"`
	Events       int     `json:"events,omitempty"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"eventsPerSec,omitempty"`
	ReqPerSec    float64 `json:"reqPerSec"`
	P50Ms        float64 `json:"p50Ms"`
	P99Ms        float64 `json:"p99Ms"`
	Retried      int     `json:"retried503,omitempty"`
}

type summary struct {
	Label      string  `json:"label,omitempty"`
	Clients    int     `json:"clients"`
	Batches    int     `json:"batchesPerClient"`
	BatchSize  int     `json:"batchSize"`
	Queries    int     `json:"queriesPerClient"`
	Sampler    string  `json:"sampler"`
	Tenants    int     `json:"tenants,omitempty"`
	TenantSkew float64 `json:"tenantSkew,omitempty"`
	// LiveTenants is read back from GET /fabrics after the waves: how many
	// tenants the pick distribution actually instantiated.
	LiveTenants int          `json:"liveTenants,omitempty"`
	Ingest      phaseSummary `json:"ingest"`
	Query       phaseSummary `json:"query"`
	// Mixed reruns ingest with concurrent readers: MixedIngest is the wave's
	// ingest view, MixedSample/MixedWeight the readers' latency split by
	// endpoint (/sample takes the application lock, /weight rides the read
	// lock and only waits for the applier to catch up).
	MixedIngest phaseSummary `json:"mixedIngest"`
	MixedSample phaseSummary `json:"mixedSample"`
	MixedWeight phaseSummary `json:"mixedWeight"`
}

func main() {
	var (
		urlFlag    = flag.String("url", "", "base URL of a running swserve; empty: hermetic in-process server")
		name       = flag.String("name", "load", "sampler name to register and drive")
		sampler    = flag.String("sampler", "sharded-weighted-wor", "seq-mode substrate to load")
		clients    = flag.Int("clients", 4, "concurrent client goroutines")
		batches    = flag.Int("batches", 50, "ingest batches per client")
		batchSize  = flag.Int("batch-size", 100, "values per ingest batch")
		queries    = flag.Int("queries", 200, "sample queries per client")
		n          = flag.Uint64("n", 4096, "sequence window size")
		k          = flag.Int("k", 16, "sample size")
		g          = flag.Int("g", 4, "shard count")
		seed       = flag.Uint64("seed", 5, "sampler seed")
		label      = flag.String("label", "", "free-form label copied into the JSON summary")
		tenants    = flag.Int("tenants", 0, "fabric mode: spread the workload over this many tenants (0: one named sampler)")
		tenantSkew = flag.Float64("tenant-skew", 1.1, "zipf exponent for the tenant pick distribution (<=0: uniform)")
	)
	flag.Parse()

	samplerName := *sampler
	if *tenants > 0 {
		// Fabrics parallelize across tenants, not within one sampler, and
		// reject goroutine-owning sharded substrates.
		samplerName = strings.TrimPrefix(samplerName, "sharded-")
	}
	spec := serve.Spec{Mode: "seq", Sampler: samplerName, N: *n, K: *k, G: *g, Seed: *seed}
	if *tenants > 0 {
		spec.G = 0
	}
	base := *urlFlag
	if base == "" {
		registry := serve.NewServer()
		if *tenants > 0 {
			if _, err := registry.RegisterFabric(*name, spec, *tenants); err != nil {
				fatal(err)
			}
		} else if _, err := registry.Register(*name, spec); err != nil {
			fatal(err)
		}
		defer registry.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		srv := serve.NewHTTPServer("", registry, serve.DefaultHTTPTimeouts())
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
	} else {
		base = strings.TrimRight(base, "/")
		if err := registerRemote(base, *name, spec, *tenants); err != nil {
			fatal(err)
		}
	}
	rt := newRoutes(base, *name, *tenants, *tenantSkew, *seed, *clients, *batches, *queries)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	out := summary{
		Label:      *label,
		Clients:    *clients,
		Batches:    *batches,
		BatchSize:  *batchSize,
		Queries:    *queries,
		Sampler:    samplerName,
		Tenants:    *tenants,
		TenantSkew: *tenantSkew,
	}
	if *tenants == 0 {
		out.TenantSkew = 0
	}
	out.Ingest = runIngest(client, rt, *clients, *batches, *batchSize, 0)
	out.Query = runQueries(client, rt, *clients, *queries)
	out.MixedIngest, out.MixedSample, out.MixedWeight =
		runMixed(client, rt, *clients, *batches, *batchSize)
	if *tenants > 0 {
		out.LiveTenants = liveTenants(client, base, *name)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swload:", err)
	os.Exit(1)
}

// registerRemote creates the load sampler — or, with tenants > 0, the load
// fabric — on an external server, tolerating "already exists" so repeated
// runs can share one instance.
func registerRemote(base, name string, spec serve.Spec, tenants int) error {
	url := base + "/samplers"
	var payload any = struct {
		Name string     `json:"name"`
		Spec serve.Spec `json:"spec"`
	}{name, spec}
	if tenants > 0 {
		url = base + "/fabrics"
		payload = struct {
			Name       string     `json:"name"`
			Spec       serve.Spec `json:"spec"`
			MaxTenants int        `json:"maxTenants"`
		}{name, spec, tenants}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated, http.StatusConflict:
		return nil
	}
	return fmt.Errorf("register %q on %s: status %d", name, base, resp.StatusCode)
}

// routes maps workload slots (global request indices) to URLs. Classic mode
// always targets the one named sampler; tenant mode spreads requests over
// /tenant/{fabric}/{id}/... following a precomputed Zipf pick sequence, so
// the tenant mix is identical run to run. weight is nil when the mixed
// wave's readers should stick to /sample.
type routes struct {
	ingest func(slot int) string
	sample func(slot int) string
	weight func(slot int) string
}

func newRoutes(base, name string, tenants int, skew float64, seed uint64, clients, batches, queries int) routes {
	if tenants <= 0 {
		return routes{
			ingest: func(int) string { return base + "/ingest/" + name },
			sample: func(int) string { return base + "/sample/" + name },
			weight: func(int) string { return base + "/weight/" + name },
		}
	}
	// Precompute the pick table sequentially from the run seed: slots
	// consume it modulo its length, so every phase (and every rerun) sees
	// the same skewed tenant mix regardless of goroutine interleaving.
	total := clients * (2*batches + queries)
	if total < 1024 {
		total = 1024
	}
	picks := make([]int, total)
	r := xrand.New(seed)
	if skew > 0 {
		z := xrand.NewZipf(r, skew, tenants)
		for i := range picks {
			picks[i] = int(z.Next())
		}
	} else {
		for i := range picks {
			picks[i] = int(r.Uint64n(uint64(tenants)))
		}
	}
	tid := func(slot int) string {
		return fmt.Sprintf("%s/tenant/%s/t%06d", base, name, picks[slot%len(picks)])
	}
	return routes{
		ingest: func(slot int) string { return tid(slot) + "/ingest" },
		sample: func(slot int) string { return tid(slot) + "/sample" },
	}
}

// ingestBody builds one deterministic batch payload: weights cycle over a
// small set, values encode (client, batch, index) so every element is
// distinct.
func ingestBody(c, b, size int) string {
	var sb strings.Builder
	sb.WriteString(`{"values":[`)
	for i := 0; i < size; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"c%d-b%d-i%d"`, c, b, i)
	}
	sb.WriteString(`],"weights":[`)
	for i := 0; i < size; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d.5", (c+b+i)%9+1)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// runIngest drives one concurrent ingest wave; batchOffset keeps a second
// wave's values distinct from the first. The slot passed to the route is
// (client, batch) flattened, so the tenant pick for a given batch does not
// depend on scheduling.
func runIngest(client *http.Client, rt routes, clients, batches, size, batchOffset int) phaseSummary {
	durs := make([][]time.Duration, clients)
	retries := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now() //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				body := ingestBody(c, b+batchOffset, size)
				for {
					t0 := time.Now() //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
					code, err := doPost(client, rt.ingest(c*batches+b), body)
					durs[c] = append(durs[c], time.Since(t0)) //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
					if err != nil {
						fatal(err)
					}
					if code == http.StatusServiceUnavailable {
						retries[c]++
						continue // staging queue full: back off by retrying
					}
					if code != http.StatusOK {
						fatal(fmt.Errorf("ingest status %d", code))
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start) //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds

	all := merge(durs)
	events := clients * batches * size
	retried := 0
	for _, r := range retries {
		retried += r
	}
	return phaseSummary{
		Requests:     len(all),
		Events:       events,
		Seconds:      elapsed.Seconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
		ReqPerSec:    float64(len(all)) / elapsed.Seconds(),
		P50Ms:        percentileMs(all, 50),
		P99Ms:        percentileMs(all, 99),
		Retried:      retried,
	}
}

func runQueries(client *http.Client, rt routes, clients, queries int) phaseSummary {
	durs := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now() //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				t0 := time.Now() //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
				code, err := doGet(client, rt.sample(c*queries+q))
				durs[c] = append(durs[c], time.Since(t0)) //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
				if err != nil {
					fatal(err)
				}
				// Tenant-mode picks can land on a tenant with no arrivals yet;
				// 404 is that route's documented answer, not a failure.
				if code != http.StatusOK && code != http.StatusNotFound {
					fatal(fmt.Errorf("sample status %d", code))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start) //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds

	all := merge(durs)
	return phaseSummary{
		Requests:  len(all),
		Seconds:   elapsed.Seconds(),
		ReqPerSec: float64(len(all)) / elapsed.Seconds(),
		P50Ms:     percentileMs(all, 50),
		P99Ms:     percentileMs(all, 99),
	}
}

// runMixed reruns the ingest wave while an equal number of readers
// alternate /sample and /weight (tenant mode: /sample only), measuring read
// latency with writes hot.
func runMixed(client *http.Client, rt routes, clients, batches, size int) (ingest, sample, weight phaseSummary) {
	sampleDurs := make([][]time.Duration, clients)
	weightDurs := make([][]time.Duration, clients)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for c := 0; c < clients; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url, durs := rt.sample(i*clients+c), &sampleDurs[c]
				if i%2 == 1 && rt.weight != nil {
					url, durs = rt.weight(i*clients+c), &weightDurs[c]
				}
				t0 := time.Now() //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
				code, err := doGet(client, url)
				*durs = append(*durs, time.Since(t0)) //swlint:allow detrand timing harness: wall-clock throughput measurement only; never feeds sampler state or seeds
				if err != nil {
					fatal(err)
				}
				if code != http.StatusOK && code != http.StatusNotFound {
					fatal(fmt.Errorf("mixed query status %d", code))
				}
			}
		}(c)
	}
	ingest = runIngest(client, rt, clients, batches, size, batches)
	close(stop)
	readers.Wait()

	sAll, wAll := merge(sampleDurs), merge(weightDurs)
	sample = phaseSummary{
		Requests:  len(sAll),
		Seconds:   ingest.Seconds,
		ReqPerSec: float64(len(sAll)) / ingest.Seconds,
		P50Ms:     percentileMs(sAll, 50),
		P99Ms:     percentileMs(sAll, 99),
	}
	weight = phaseSummary{
		Requests:  len(wAll),
		Seconds:   ingest.Seconds,
		ReqPerSec: float64(len(wAll)) / ingest.Seconds,
		P50Ms:     percentileMs(wAll, 50),
		P99Ms:     percentileMs(wAll, 99),
	}
	return ingest, sample, weight
}

func doPost(client *http.Client, url, body string) (int, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// liveTenants reads the fabric listing and returns the named fabric's live
// tenant count (0 if the listing is unavailable — diagnostics, not a gate).
func liveTenants(client *http.Client, base, name string) int {
	resp, err := client.Get(base + "/fabrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var infos []struct {
		Name    string `json:"name"`
		Tenants int    `json:"tenants"`
	}
	if json.NewDecoder(resp.Body).Decode(&infos) != nil {
		return 0
	}
	for _, info := range infos {
		if info.Name == name {
			return info.Tenants
		}
	}
	return 0
}

func doGet(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func merge(durs [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentileMs returns the p-th percentile of a sorted latency slice in
// milliseconds (nearest-rank).
func percentileMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
