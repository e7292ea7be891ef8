package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"slidingsample/internal/serve"
	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// hotTenants is how many of tenants-zipf's busiest tenants are checked
// answer by answer.
const hotTenants = 100

// check compares the server's final answers with an in-process replay of
// the same admitted batches, in the same admission order, at the same
// seed. Queries draw no randomness, so the answers must be byte-identical.
func (s *session) check() error {
	if s.w.fabric {
		return s.checkFabric()
	}
	order, err := admissionOrder(s.acked)
	if err != nil {
		s.b.rep.problem(s.w.name, "%v", err)
		return nil
	}
	spec := s.w.spec
	spec.Seed = s.seed
	ref := serve.NewServer()
	defer ref.Close()
	inst, err := ref.Register(s.w.target, spec)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", s.w.name, err)
	}
	raw, err := newBare(spec)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", s.w.name, err)
	}
	defer raw.close()
	err = replayInOrder(s.w.plan(s.b.seed, false).ingest, map[string][]ack{"": order}, func(_ string, b batch) error {
		raw.feed(b)
		return ingestInstance(inst, b)
	})
	if err != nil {
		return fmt.Errorf("%s: replay: %w", s.w.name, err)
	}
	for _, path := range s.w.checks {
		s.compare(ref, path)
	}
	s.compareSample(s.w.checks[0], raw)
	return nil
}

// bare is the workload's substrate built directly by substrate.New, seeded
// as the server seeds it and fed the same batches as the reference. The
// reference shares the serving layer's code, so a serving-layer change
// that alters what gets sampled would agree with itself; the bare
// substrate would not.
type bare struct {
	built any
	wb    weightedBatcher
	ts    bool
	last  int64 // on a timestamp window: the latest timestamp fed, the server's query clock
}

func newBare(spec serve.Spec) (*bare, error) {
	wb, built, err := buildWeighted(spec)
	if err != nil {
		return nil, err
	}
	return &bare{built: built, wb: wb, ts: spec.Mode == "ts"}, nil
}

func (br *bare) feed(b batch) {
	br.wb.ObserveWeightedBatch(elementsOf(b), b.weights)
	if br.ts {
		br.last = b.ts[len(b.ts)-1]
	}
}

func (br *bare) close() { closeBuilt(br.built) }

// sampleOf answers a substrate's sample the way the serving layer does:
// after a barrier on a sharded substrate, at the query time at on a
// timestamp window.
func sampleOf(built any, ts bool, at int64) ([]stream.Element[string], bool) {
	if b, ok := built.(interface{ Barrier() }); ok {
		b.Barrier()
	}
	if ts {
		return built.(stream.TimedSampler[string]).SampleAt(at)
	}
	return built.(stream.Sampler[string]).Sample()
}

// compareSample records a problem unless the server's answer to the
// sample query at path lists exactly the bare substrate's sample.
func (s *session) compareSample(path string, raw *bare) {
	code, body, err := s.srv.get(path)
	var got serve.SampleResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &got)
	}
	if err != nil || code != http.StatusOK {
		s.b.rep.problem(s.w.name, "GET %s: status %d, %v", path, code, err)
		return
	}
	want, ok := sampleOf(raw.built, raw.ts, raw.last)
	same := got.OK == ok && len(got.Sample) == len(want)
	for i := 0; same && i < len(want); i++ {
		e := got.Sample[i]
		same = e.Value == want[i].Value && e.Index == want[i].Index && e.TS == want[i].TS
	}
	if !same {
		s.b.rep.problem(s.w.name, "GET %s differs from the bare substrate's sample over the same batches:\n  server %.200s\n  substrate %v", path, body, want)
	}
}

// compare fetches path from the server and the reference and records a
// problem unless both answer 200 with the same bytes.
func (s *session) compare(ref http.Handler, path string) {
	code, got, err := s.srv.get(path)
	if err != nil {
		s.b.rep.problem(s.w.name, "GET %s: %v", path, err)
		return
	}
	rec := httptest.NewRecorder()
	ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if code != http.StatusOK || rec.Code != http.StatusOK || !bytes.Equal(got, rec.Body.Bytes()) {
		s.b.rep.problem(s.w.name, "GET %s differs from the replay:\n  server %d %.200s\n  replay %d %.200s", path, code, got, rec.Code, rec.Body.Bytes())
	}
}

// admissionOrder sorts answered batches by the admission count each ingest
// answer carried, and checks that the counts chain: each is its
// predecessor's plus the batch's own size.
func admissionOrder(acks []ack) ([]ack, error) {
	sorted := append([]ack(nil), acks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].count < sorted[j].count })
	var prev uint64
	for _, a := range sorted {
		if a.count != prev+uint64(a.events) {
			return nil, fmt.Errorf("admission counts do not chain: batch %d of %d events answered count %d after count %d", a.seq, a.events, a.count, prev)
		}
		prev = a.count
	}
	return sorted, nil
}

// replayInOrder regenerates the ingest sequence and hands each answered
// batch to apply in its stream's admission order (one stream per tenant, or
// one for a named sampler). A batch waits only until its turn; batches that
// were never answered are skipped.
func replayInOrder(src *source, streams map[string][]ack, apply func(stream string, b batch) error) error {
	owner := make(map[int]string)
	last, remaining := -1, 0
	for st, as := range streams {
		for _, a := range as {
			owner[a.seq] = st
			last = max(last, a.seq)
		}
		remaining += len(as)
	}
	pos := make(map[string]int)
	pending := make(map[int]batch)
	for remaining > 0 {
		rq := src.next()
		if rq.kind != ingestReq {
			continue
		}
		if rq.seq > last {
			return errors.New("answered batches missing from the regenerated sequence")
		}
		st, ok := owner[rq.seq]
		if !ok {
			continue
		}
		pending[rq.seq] = rq.b
		as := streams[st]
		for pos[st] < len(as) {
			b, ok := pending[as[pos[st]].seq]
			if !ok {
				break
			}
			delete(pending, as[pos[st]].seq)
			if err := apply(st, b); err != nil {
				return err
			}
			pos[st]++
			remaining--
		}
	}
	return nil
}

// ingestInstance admits b, waiting out staging-queue backpressure.
func ingestInstance(inst *serve.Instance, b batch) error {
	for {
		_, err := inst.Ingest(b.values, b.ts, b.weights)
		if !errors.Is(err, serve.ErrOverloaded) {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkFabric checks the live tenant count against the tenants the
// generator saw answered, and the hottest tenants' samples against a
// replay of their batches and against bare per-tenant substrates seeded
// by xrand.TenantSeed.
func (s *session) checkFabric() error {
	byTenant := make(map[string][]ack)
	events := make(map[string]int)
	for _, a := range s.acked {
		byTenant[a.tenant] = append(byTenant[a.tenant], a)
		events[a.tenant] += a.events
	}
	code, body, err := s.srv.get("/fabrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("%s: GET /fabrics: status %d, %v", s.w.name, code, err)
	}
	var infos []serve.FabricInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return fmt.Errorf("%s: GET /fabrics: %w", s.w.name, err)
	}
	live := -1
	for _, fi := range infos {
		if fi.Name == s.w.target {
			live = fi.Tenants
		}
	}
	if live != len(byTenant) {
		s.b.rep.problem(s.w.name, "GET /fabrics reports %d live tenants; the generator saw %d answered", live, len(byTenant))
	}

	ids := make([]string, 0, len(byTenant))
	for id := range byTenant {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if events[ids[i]] != events[ids[j]] {
			return events[ids[i]] > events[ids[j]]
		}
		return ids[i] < ids[j]
	})
	streams := make(map[string][]ack)
	for _, id := range ids[:min(hotTenants, len(ids))] {
		order, err := admissionOrder(byTenant[id])
		if err != nil {
			s.b.rep.problem(s.w.name, "tenant %s: %v", id, err)
			return nil
		}
		streams[id] = order
	}
	spec := s.w.spec
	spec.Seed = s.seed
	ref := serve.NewServer()
	defer ref.Close()
	f, err := ref.RegisterFabric(s.w.target, spec, maxTenants)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", s.w.name, err)
	}
	raws := make(map[string]*bare)
	for id := range streams {
		tenantSpec := spec
		tenantSpec.Seed = xrand.TenantSeed(s.seed, id)
		raw, err := newBare(tenantSpec)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", s.w.name, err)
		}
		raws[id] = raw
	}
	err = replayInOrder(s.w.plan(s.b.seed, false).ingest, streams, func(id string, b batch) error {
		raws[id].feed(b)
		_, err := f.Ingest(id, b.values, b.ts, b.weights)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: replay: %w", s.w.name, err)
	}
	for id, raw := range raws {
		path := "/tenant/" + s.w.target + "/" + id + "/sample"
		s.compare(ref, path)
		s.compareSample(path, raw)
	}
	return nil
}
