package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slidingsample/internal/xrand"
)

// fabricSpec is the standard test template: a non-sharded weighted
// timestamp sampler (plain Sample/SampleAt, SizeAt oracle, explicit-weight
// ingest — the widest capability set a fabric template can carry).
var fabricSpec = Spec{Mode: "ts", Sampler: "weighted-ts-wor", T0: 60, K: 5, Seed: 77}

func newFabricServer(t *testing.T, spec Spec, maxTenants int) (*Server, *Fabric, *httptest.Server) {
	t.Helper()
	s := NewServer()
	f, err := s.RegisterFabric("fab", spec, maxTenants)
	if err != nil {
		t.Fatalf("RegisterFabric: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, f, ts
}

func TestTenantIngestAndQuery(t *testing.T) {
	_, f, ts := newFabricServer(t, fabricSpec, 0)

	// First arrival creates the tenant lazily.
	code, body := post(t, ts.URL+"/tenant/fab/alice/ingest",
		`{"values":["a1","a2","a3"],"timestamps":[1,2,3],"weights":[1,2,3]}`)
	wantStatus(t, code, http.StatusOK, body)
	var ir IngestResponse
	if err := json.Unmarshal([]byte(body), &ir); err != nil || ir.Ingested != 3 || ir.Count != 3 {
		t.Fatalf("ingest response: %s", body)
	}
	if f.Tenants() != 1 {
		t.Fatalf("live tenants %d, want 1", f.Tenants())
	}

	// NDJSON rides the same route (and the slab-recycled scratch path).
	nd := `{"value":"b1","ts":1}` + "\n" + `{"value":"b2","ts":4}` + "\n"
	code, body = do(t, http.MethodPost, ts.URL+"/tenant/fab/bob/ingest", "application/x-ndjson", nd)
	wantStatus(t, code, http.StatusOK, body)
	if f.Tenants() != 2 {
		t.Fatalf("live tenants %d, want 2", f.Tenants())
	}

	// Queries answer per tenant.
	code, body = get(t, ts.URL+"/tenant/fab/alice/sample")
	wantStatus(t, code, http.StatusOK, body)
	var sr SampleResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || !sr.OK || len(sr.Sample) != 3 {
		t.Fatalf("alice sample: %s", body)
	}
	code, body = get(t, ts.URL+"/tenant/fab/bob/size?at=4")
	wantStatus(t, code, http.StatusOK, body)

	// Queries NEVER create tenants: unknown tenant is 404 and the live
	// count is untouched.
	code, body = get(t, ts.URL+"/tenant/fab/carol/sample")
	wantStatus(t, code, http.StatusNotFound, body)
	if f.Tenants() != 2 {
		t.Fatalf("query created a tenant: live %d", f.Tenants())
	}
	// Unknown fabric is 404 too; bad tenant ids are 400.
	code, body = get(t, ts.URL+"/tenant/nope/alice/sample")
	wantStatus(t, code, http.StatusNotFound, body)
	code, body = post(t, ts.URL+"/tenant/fab/"+strings.Repeat("x", 200)+"/ingest", `{"values":["v"],"timestamps":[9]}`)
	wantStatus(t, code, http.StatusBadRequest, body)

	// An empty batch is not an arrival: it reports count 0 without creating
	// the tenant.
	code, body = post(t, ts.URL+"/tenant/fab/dave/ingest", `{"values":[],"timestamps":[]}`)
	wantStatus(t, code, http.StatusOK, body)
	if err := json.Unmarshal([]byte(body), &ir); err != nil || ir.Count != 0 {
		t.Fatalf("empty-batch response: %s", body)
	}
	if f.Tenants() != 2 {
		t.Fatalf("empty batch created a tenant: live %d", f.Tenants())
	}

	// A rejected batch leaves the fabric untouched: invalid shape on a NEW
	// tenant does not create it, and the clock contract matches the named
	// instances (non-monotone ingest 409, weights validated up front).
	code, body = post(t, ts.URL+"/tenant/fab/eve/ingest", `{"values":["v","w"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusBadRequest, body)
	code, body = post(t, ts.URL+"/tenant/fab/eve/ingest", `{"values":["v"],"timestamps":[1],"weights":[-1]}`)
	wantStatus(t, code, http.StatusBadRequest, body)
	if f.Tenants() != 2 {
		t.Fatalf("rejected batches created a tenant: live %d", f.Tenants())
	}
	code, body = post(t, ts.URL+"/tenant/fab/alice/ingest", `{"values":["late"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusConflict, body)

	// The fabric listing reports the live count.
	code, body = get(t, ts.URL+"/fabrics")
	wantStatus(t, code, http.StatusOK, body)
	var infos []FabricInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil || len(infos) != 1 {
		t.Fatalf("fabric listing: %s", body)
	}
	if infos[0].Name != "fab" || infos[0].Tenants != 2 || infos[0].MaxTenants != DefaultMaxTenants {
		t.Fatalf("fabric info: %+v", infos[0])
	}
}

func TestTenantSeqModeAndCapabilityGaps(t *testing.T) {
	_, _, ts := newFabricServer(t, Spec{Mode: "seq", Sampler: "wor", N: 32, K: 4, Seed: 5}, 0)
	code, body := post(t, ts.URL+"/tenant/fab/u1/ingest", `{"values":["a","b","c"]}`)
	wantStatus(t, code, http.StatusOK, body)
	// Sequence windows: timestamps rejected, at= rejected.
	code, body = post(t, ts.URL+"/tenant/fab/u1/ingest", `{"values":["d"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusBadRequest, body)
	code, body = get(t, ts.URL+"/tenant/fab/u1/sample?at=3")
	wantStatus(t, code, http.StatusBadRequest, body)
	code, body = get(t, ts.URL+"/tenant/fab/u1/sample")
	wantStatus(t, code, http.StatusOK, body)
	// A uniform sampler has no size oracle, no estimator, and takes no
	// explicit weights.
	for _, ep := range []string{"size", "subsetsum"} {
		code, body = get(t, ts.URL+"/tenant/fab/u1/"+ep)
		wantStatus(t, code, http.StatusBadRequest, body)
	}
	// No tenant answers a weight query (only sharded substrates carry a
	// weight oracle, and fabrics refuse them), so the route does not exist.
	code, body = get(t, ts.URL+"/tenant/fab/u1/weight")
	wantStatus(t, code, http.StatusNotFound, body)
	code, body = post(t, ts.URL+"/tenant/fab/u1/ingest", `{"values":["d"],"weights":[2]}`)
	wantStatus(t, code, http.StatusBadRequest, body)
}

// badFabricRegistrations are fabric registrations the registry must
// refuse; FuzzRegisterHandler seeds its corpus from them as POST /fabrics
// bodies.
var badFabricRegistrations = map[string]FabricRegisterRequest{
	"sharded template":   {"f1", Spec{Mode: "ts", Sampler: "sharded-weighted-ts-wor", T0: 60, K: 4, G: 4}, 0},
	"bad name":           {"a b", Spec{Mode: "seq", Sampler: "wor", N: 8, K: 2}, 0},
	"unknown sampler":    {"f2", Spec{Mode: "seq", Sampler: "quantum", N: 8, K: 2}, 0},
	"negative budget":    {"f3", Spec{Mode: "seq", Sampler: "wor", N: 8, K: 2}, -1},
	"budget over cap":    {"f4", Spec{Mode: "seq", Sampler: "wor", N: 8, K: 2}, MaxTenantsCap + 1},
	"words budget blown": {"f5", Spec{Mode: "seq", Sampler: "wor", N: 1 << 20, K: MaxK}, MaxTenantsCap},
}

func TestFabricRegisterValidation(t *testing.T) {
	s := NewServer()
	t.Cleanup(s.Close)
	for name, tc := range badFabricRegistrations {
		t.Run(name, func(t *testing.T) {
			if _, err := s.RegisterFabric(tc.Name, tc.Spec, tc.MaxTenants); err == nil {
				t.Fatalf("RegisterFabric accepted %+v", tc)
			}
		})
	}
	if _, err := s.RegisterFabric("ok", fabricSpec, 100); err != nil {
		t.Fatalf("valid fabric refused: %v", err)
	}
	if _, err := s.RegisterFabric("ok", fabricSpec, 100); err != ErrDuplicateName {
		t.Fatalf("duplicate fabric: %v", err)
	}
	// Fabric and sampler namespaces are independent.
	if _, err := s.Register("ok", Spec{Mode: "seq", Sampler: "wor", N: 8, K: 2}); err != nil {
		t.Fatalf("sampler sharing a fabric name refused: %v", err)
	}
}

func TestTenantBudgetExhaustion(t *testing.T) {
	_, f, ts := newFabricServer(t, fabricSpec, 2)
	for _, id := range []string{"t1", "t2"} {
		code, body := post(t, ts.URL+"/tenant/fab/"+id+"/ingest", `{"values":["v"],"timestamps":[1]}`)
		wantStatus(t, code, http.StatusOK, body)
	}
	// The third first-arrival blows the budget: 507, and no tenant appears.
	code, body := post(t, ts.URL+"/tenant/fab/t3/ingest", `{"values":["v"],"timestamps":[1]}`)
	wantStatus(t, code, http.StatusInsufficientStorage, body)
	if f.Tenants() != 2 {
		t.Fatalf("live tenants %d after budget rejection, want 2", f.Tenants())
	}
	// Existing tenants keep working at the cap.
	code, body = post(t, ts.URL+"/tenant/fab/t1/ingest", `{"values":["w"],"timestamps":[2]}`)
	wantStatus(t, code, http.StatusOK, body)
}

func TestFabricCloseSealsIngest(t *testing.T) {
	s, _, ts := newFabricServer(t, fabricSpec, 0)
	code, body := post(t, ts.URL+"/tenant/fab/t1/ingest", `{"values":["v","w"],"timestamps":[1,2]}`)
	wantStatus(t, code, http.StatusOK, body)
	s.Close()
	s.Close() // idempotent
	// Tenants stay queryable; ingest and creation are refused.
	code, body = get(t, ts.URL+"/tenant/fab/t1/sample")
	wantStatus(t, code, http.StatusOK, body)
	code, body = post(t, ts.URL+"/tenant/fab/t1/ingest", `{"values":["x"],"timestamps":[3]}`)
	wantStatus(t, code, http.StatusConflict, body)
	code, body = post(t, ts.URL+"/tenant/fab/t9/ingest", `{"values":["x"],"timestamps":[3]}`)
	wantStatus(t, code, http.StatusConflict, body)
	// Registering new fabrics is refused too.
	if _, err := s.RegisterFabric("late", fabricSpec, 0); err != ErrClosed {
		t.Fatalf("RegisterFabric after Close: %v", err)
	}
}

// TestTenantFirstArrivalRace is the concurrent lazy-instantiation hammer:
// many goroutines race to create the same and different tenants. Exactly
// one sampler must win per tenant — every racer's batch lands in the SAME
// sampler (the per-tenant event count accounts for all of them; a lost
// duplicate would swallow events), and the live count matches the distinct
// ids. Run under -race this also proves the striped registry's memory
// safety.
func TestTenantFirstArrivalRace(t *testing.T) {
	f, err := NewFabric(Spec{Mode: "seq", Sampler: "wor", N: 1 << 16, K: 4, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		tenants   = 32
		perTenant = 8 // goroutines racing on each tenant
		batches   = 5
		batchSize = 3
	)
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(tn, g int) {
				defer wg.Done()
				id := fmt.Sprintf("tenant-%d", tn)
				vals := make([]string, batchSize)
				for b := 0; b < batches; b++ {
					for i := range vals {
						vals[i] = fmt.Sprintf("g%db%di%d", g, b, i)
					}
					if _, err := f.Ingest(id, vals, nil, nil); err != nil {
						t.Errorf("ingest %s: %v", id, err)
						return
					}
				}
			}(tn, g)
		}
	}
	wg.Wait()
	if got := f.Tenants(); got != tenants {
		t.Fatalf("live tenants %d, want %d", got, tenants)
	}
	for tn := 0; tn < tenants; tn++ {
		id := fmt.Sprintf("tenant-%d", tn)
		count, err := f.Count(id)
		if err != nil {
			t.Fatalf("count %s: %v", id, err)
		}
		if want := uint64(perTenant * batches * batchSize); count != want {
			t.Fatalf("tenant %s saw %d events, want %d — a creation race split the stream across samplers", id, count, want)
		}
	}
}

// TestTenantDeterminismAcrossInterleaving is the per-tenant WithSeed
// contract: a tenant's responses through the fabric — with other tenants'
// arrivals interleaved arbitrarily between its own — are byte-identical to
// a standalone named sampler registered with that tenant's derived seed
// (xrand.TenantSeed(base, id)) and fed ONLY that tenant's batches in the
// same order.
func TestTenantDeterminismAcrossInterleaving(t *testing.T) {
	_, f, ts := newFabricServer(t, fabricSpec, 0)
	base := f.Spec().Seed

	ids := []string{"alpha", "beta", "gamma"}
	// Per-tenant script: batch b of tenant i ingests 4 values at increasing
	// timestamps; the interleaving round-robins the tenants with uneven
	// strides so arrivals genuinely interleave.
	const rounds = 6
	tenantBody := func(i, b int) string {
		var vals, tss, ws []string
		for j := 0; j < 4; j++ {
			vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("t%d-b%d-%d", i, b, j)))
			tss = append(tss, fmt.Sprintf("%d", b*10+j))
			ws = append(ws, fmt.Sprintf("%d", (i+b+j)%7+1))
		}
		return fmt.Sprintf(`{"values":[%s],"timestamps":[%s],"weights":[%s]}`,
			strings.Join(vals, ","), strings.Join(tss, ","), strings.Join(ws, ","))
	}
	for b := 0; b < rounds; b++ {
		for off := 0; off < len(ids); off++ {
			i := (b + off*2) % len(ids) // uneven interleave, each tenant once per round
			code, body := post(t, ts.URL+"/tenant/fab/"+ids[i]+"/ingest", tenantBody(i, b))
			wantStatus(t, code, http.StatusOK, body)
		}
	}
	// Collect each tenant's responses through the fabric.
	fabricResp := make(map[string][]string)
	for _, id := range ids {
		for _, q := range []string{"/sample", "/size?at=" + fmt.Sprint((rounds-1)*10+3)} {
			code, body := get(t, ts.URL+"/tenant/fab/"+id+q)
			wantStatus(t, code, http.StatusOK, body)
			fabricResp[id] = append(fabricResp[id], body)
		}
	}

	// Replay each tenant solo against a named instance seeded with the
	// derived per-tenant seed.
	for i, id := range ids {
		solo := NewServer()
		spec := fabricSpec
		spec.Seed = xrand.TenantSeed(base, id)
		if _, err := solo.Register("solo", spec); err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(solo)
		for b := 0; b < rounds; b++ {
			code, body := post(t, sts.URL+"/ingest/solo", tenantBody(i, b))
			wantStatus(t, code, http.StatusOK, body)
		}
		var got []string
		for _, q := range []string{"/sample/solo", "/size/solo?at=" + fmt.Sprint((rounds-1)*10+3)} {
			code, body := get(t, sts.URL+q)
			wantStatus(t, code, http.StatusOK, body)
			got = append(got, body)
		}
		sts.Close()
		solo.Close()
		for j := range got {
			if got[j] != fabricResp[id][j] {
				t.Fatalf("tenant %s response %d diverges from solo replay:\nfabric: %s\nsolo:   %s",
					id, j, fabricResp[id][j], got[j])
			}
		}
	}
}

// TestNDJSONLineTooLong pins the bounded-scanner contract: an NDJSON line
// beyond maxNDJSONLineBytes is refused with 413 on both the named-sampler
// and the tenant ingest routes, the response names the limit, and the
// sampler stays usable afterward.
func TestNDJSONLineTooLong(t *testing.T) {
	s, _, ts := newFabricServer(t, fabricSpec, 0)
	if _, err := s.Register("named", fabricSpec); err != nil {
		t.Fatal(err)
	}
	huge := `{"value":"` + strings.Repeat("x", maxNDJSONLineBytes+1) + `","ts":1}` + "\n"
	for _, url := range []string{ts.URL + "/ingest/named", ts.URL + "/tenant/fab/big/ingest"} {
		code, body := do(t, http.MethodPost, url, "application/x-ndjson", huge)
		wantStatus(t, code, http.StatusRequestEntityTooLarge, body)
		if !strings.Contains(body, "per-line limit") || !strings.Contains(body, fmt.Sprint(maxNDJSONLineBytes)) {
			t.Fatalf("413 body should name the limit: %s", body)
		}
	}
	// Nothing was admitted, and a within-bound line still works.
	ok := `{"value":"small","ts":1}` + "\n"
	for _, url := range []string{ts.URL + "/ingest/named", ts.URL + "/tenant/fab/big/ingest"} {
		code, body := do(t, http.MethodPost, url, "application/x-ndjson", ok)
		wantStatus(t, code, http.StatusOK, body)
		var ir IngestResponse
		if err := json.Unmarshal([]byte(body), &ir); err != nil || ir.Count != 1 {
			t.Fatalf("post-413 ingest should start from a clean count: %s", body)
		}
	}
}

// TestTenantScratchRecyclingKeepsBatchesIntact drives many different-sized
// batches through one connection so the slab-recycled request scratch is
// reused across requests; every response must account for exactly its own
// batch (a stale recycled slice would surface as phantom values or wrong
// counts).
func TestTenantScratchRecyclingKeepsBatchesIntact(t *testing.T) {
	_, _, ts := newFabricServer(t, Spec{Mode: "seq", Sampler: "wor", N: 1 << 12, K: 3, Seed: 8}, 0)
	total := uint64(0)
	for r := 0; r < 40; r++ {
		n := r%7 + 1
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("r%d-%d", r, i)))
		}
		code, body := post(t, ts.URL+"/tenant/fab/solo/ingest", `{"values":[`+strings.Join(vals, ",")+`]}`)
		wantStatus(t, code, http.StatusOK, body)
		total += uint64(n)
		var ir IngestResponse
		if err := json.Unmarshal([]byte(body), &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Ingested != n || ir.Count != total {
			t.Fatalf("round %d: ingested %d count %d, want %d/%d (%s)", r, ir.Ingested, ir.Count, n, total, body)
		}
	}
}

// TestActiveTenantBytes bounds the live heap of a tenants-zipf-shaped
// population: 20k batches of 16 explicitly weighted values, each for a
// Zipf(1.1)-drawn tenant out of 100k, into a weighted-wor fabric at n 4096,
// k 8. Each batch has its own value strings, built before the first
// reading like the requests they stand for, so the growth is the fabric's:
// the registry, the tenant records and their skybands. The bound is ~10%
// above a reading of 1,264 bytes per tenant (amd64, go1.24): it catches a
// wider tenant record or more skyband slack (tenant records that carried
// every wired capability view, with append-doubled node slices, read
// 1,617).
func TestActiveTenantBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap readings")
	}
	const batches, size, ids, activeTenantBytes = 20_000, 16, 100_000, 1390
	f, err := NewFabric(Spec{Mode: "seq", Sampler: "weighted-wor", N: 4096, K: 8, Weight: "bytes", Seed: 821}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(821)
	pick := xrand.NewZipf(r, 1.1, ids)
	type batch struct {
		id      string
		values  []string
		weights []float64
	}
	bs := make([]batch, batches)
	for i := range bs {
		b := batch{id: "t" + strconv.FormatUint(pick.Next(), 10), values: make([]string, size), weights: make([]float64, size)}
		for j := range b.values {
			b.values[j] = "e" + strconv.FormatUint(r.Uint64n(1<<20), 10)
			b.weights[j] = float64(1 + r.Uint64n(9))
		}
		bs[i] = b
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, b := range bs {
		if _, err := f.Ingest(b.id, b.values, nil, b.weights); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(f.Tenants())
	runtime.KeepAlive(bs)
	runtime.KeepAlive(f)
	t.Logf("%d tenants, %.0f live heap bytes per tenant", f.Tenants(), per)
	if per > activeTenantBytes {
		t.Errorf("%.0f live heap bytes per tenant, want at most %d", per, activeTenantBytes)
	}
}
