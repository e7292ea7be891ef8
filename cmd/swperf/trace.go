package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// span is one traced interval: a workload, a phase or rung, or one call or
// HTTP request within it. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: phases hand over their timings when they finish.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// open records a span whose end is set later by close.
func (t *tracer) open(parent int, name string) int { return t.add(parent, name, now(), now()) }

func (t *tracer) close(id int) { t.spans[id-1].End = now().Sub(t.epoch).Nanoseconds() }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	err = json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// runTraced is the traced run of one workload. It runs the nominal phase
// with client spans, then the crash and recovery, the peak and the output
// checks, and last replays the workload's inputs through every layer (the
// ladder). The spans are built after the phase from the timings the
// untraced run takes anyway, so tracing adds no work inside the phase.
func (b *bench) runTraced(w *workload) error {
	root := b.tr.open(0, "workload "+w.name)
	defer b.tr.close(root)

	s := b.newSession(w)
	defer s.stop()
	if _, err := s.start(); err != nil {
		return err
	}
	s.prefill()
	ph := s.nominal(1)
	id := b.tr.add(root, "e2e.nominal", ph.start, ph.end)
	var ingestRTT, queryRTT []time.Duration
	for _, o := range ph.outcomes {
		name := "http.query"
		if o.kind == ingestReq {
			name = "http.ingest"
		}
		b.tr.add(id, name, o.start, o.end)
		switch {
		case o.due.Before(ph.from):
		case o.kind == ingestReq:
			ingestRTT = append(ingestRTT, o.end.Sub(o.start))
		default:
			queryRTT = append(queryRTT, o.end.Sub(o.start))
		}
	}
	sortDurations(ingestRTT)
	sortDurations(queryRTT)
	sortDurations(ph.late)
	ing, qs := latencies(ph.outcomes, ingestReq, ph.from), latencies(ph.outcomes, queryReq, ph.from)
	b.reportNominal(w, ph)
	b.rep.metric(w.name, "ingest_p99_ms", ms(quantile(ing, 0.99)), len(ing))
	b.rep.metric(w.name, "query_p99_ms", ms(quantile(qs, 0.99)), len(qs))
	b.rep.metric(w.name, "http.ingest_rtt_p50_us", us(quantile(ingestRTT, 0.5)), len(ingestRTT))
	b.rep.metric(w.name, "http.query_rtt_p50_us", us(quantile(queryRTT, 0.5)), len(queryRTT))
	b.rep.metric(w.name, "gen.late_p99_ms", ms(quantile(ph.late, 0.99)), len(ph.late))
	b.rep.metric(w.name, "gen.inflight_max", float64(ph.inflightMax), 0)

	if w.durable {
		d, n, err := s.recovery()
		if err != nil {
			return err
		}
		b.rep.metric(w.name, "recover_s", d.Seconds(), n)
	}
	if err := s.peak(b.phaseLen(peakShare)); err != nil {
		return err
	}
	if err := s.check(); err != nil {
		return err
	}
	if !w.durable {
		d, n, err := s.recovery()
		if err != nil {
			return err
		}
		b.rep.metric(w.name, "recover_s", d.Seconds(), n)
	}
	return b.ladder(w, root)
}

// recovery measures recovery: with a state dir, one crash and restart that
// replays the WAL; without one, the median of spawns restarts after a
// crash, the control for the replay.
func (s *session) recovery() (time.Duration, int, error) {
	if s.w.durable {
		d, err := s.crashAndRecover()
		return d, 1, err
	}
	var restarts []float64
	for i := 0; i < spawns; i++ {
		s.srv.kill()
		d, err := s.start()
		if err != nil {
			return 0, 0, err
		}
		restarts = append(restarts, d.Seconds())
	}
	return time.Duration(median(restarts) * float64(time.Second)), len(restarts), nil
}

// crashAndRecover kills the server with SIGKILL and restarts it on the
// same state dir; the recovered server must answer /sample exactly as the
// killed one did.
func (s *session) crashAndRecover() (time.Duration, error) {
	path := s.w.checks[0]
	code, before, err := s.srv.get(path)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("%s: pre-crash GET %s: status %d, %v", s.w.name, path, code, err)
	}
	s.srv.kill()
	d, err := s.start()
	if err != nil {
		return 0, fmt.Errorf("%s: recover: %w", s.w.name, err)
	}
	code, after, err := s.srv.get(path)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("%s: post-recovery GET %s: status %d, %v", s.w.name, path, code, err)
	}
	if !bytes.Equal(before, after) {
		s.b.rep.problem(s.w.name, "recovered %s differs from the pre-crash answer:\n  before %.200s\n  after  %.200s", path, before, after)
	}
	return d, nil
}

// endPath is the GET that closes the peak phase: a /sample, which applies
// everything admitted before it (a fabric applies on ingest; its hottest
// tenant's sample stands in).
func (s *session) endPath() string {
	if !s.w.fabric {
		return s.w.checks[0]
	}
	events := make(map[string]int)
	hot := ""
	for _, a := range s.acked {
		events[a.tenant] += a.events
		if hot == "" || events[a.tenant] > events[hot] {
			hot = a.tenant
		}
	}
	return "/tenant/" + s.w.target + "/" + hot + "/sample"
}

// peakBursts is how many closed-loop bursts the peak phase is split into;
// the peak metrics are the median burst's, so one stalled burst does not
// move them.
const peakBursts = 5

// peak runs every connection closed-loop in bursts. Acks precede
// application on the pipelined path, so each burst ends with a /sample,
// which applies every admitted batch, and peak_eps counts applied events.
func (s *session) peak(dur time.Duration) error {
	end := s.endPath()
	// Start from an empty staging queue.
	if code, _, err := s.srv.get(end); err != nil || code != http.StatusOK {
		return fmt.Errorf("%s: GET %s before the peak: status %d, %v", s.w.name, end, code, err)
	}
	var eps, qps []float64
	var ingests, queries, refused, failed, sent int
	for i := 0; i < peakBursts; i++ {
		ph := drive(s.plan, s.srv.base, s.acks, dur/peakBursts, true)
		if code, _, err := s.srv.get(end); err != nil || code != http.StatusOK {
			return fmt.Errorf("%s: GET %s after a peak burst: status %d, %v", s.w.name, end, code, err)
		}
		elapsed := now().Sub(ph.start).Seconds()
		s.absorb(ph)
		events, nq := 0, 0
		for _, o := range ph.outcomes {
			switch {
			case !o.ok():
				failed++
			case o.kind == ingestReq:
				events += o.events
				ingests++
				refused += o.refused
			default:
				nq++
			}
		}
		sent += len(ph.outcomes)
		queries += nq
		eps = append(eps, float64(events)/elapsed)
		qps = append(qps, float64(nq)/elapsed)
	}
	if failed > 0 {
		s.b.rep.problem(s.w.name, "%d of %d peak requests failed", failed, sent)
	}
	s.b.rep.metric(s.w.name, "peak_eps", median(eps), ingests)
	s.b.rep.metric(s.w.name, "peak_qps", median(qps), queries)
	s.b.rep.info(s.w.name, "peak_refused_ratio", float64(refused)/float64(max(refused+ingests, 1)), "fraction", refused+ingests)
	return nil
}
