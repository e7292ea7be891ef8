package main

import (
	"os"
	"path/filepath"
	"time"
)

// spawns is how many times set-up, and a restart without state, is timed;
// the metric is the median.
const spawns = 21

// Phase lengths as shares of -seconds (times -scale). The warm-up and the
// nominal phase fill -seconds; the traced run adds the peak.
const (
	warmShare    = 0.2  // open loop at the nominal rates, not timed
	nominalShare = 0.8  // open loop at the nominal rates, timed from due time
	peakShare    = 0.25 // closed loop on every connection
)

// bench is one invocation's settings and report.
type bench struct {
	bin      string // the built swserve
	buildDir string
	seed     uint64
	seconds  float64
	scale    float64
	rep      *report
	tr       *tracer // nil: untraced run
}

func (b *bench) phaseLen(share float64) time.Duration {
	return time.Duration(b.seconds * b.scale * share * float64(time.Second))
}

// scaled multiplies a size by -scale, keeping at least one.
func (b *bench) scaled(n int) int { return max(int(float64(n)*b.scale), 1) }

// ack is one answered ingest batch: what the replay needs to rebuild the
// server's admission order.
type ack struct {
	seq    int
	events int
	count  uint64
	tenant string
}

// session is one workload against one swserve lineage (a crash-recovered
// server continues its predecessor's session).
type session struct {
	b        *bench
	w        *workload
	seed     uint64 // the server's sampler seed
	plan     *plan
	acks     *ackSet
	stateDir string
	srv      *server
	acked    []ack
}

func (b *bench) newSession(w *workload) *session {
	return &session{
		b: b, w: w,
		seed:     subSeed(b.seed, "server/"+w.name),
		plan:     w.plan(b.seed, true),
		acks:     newAckSet(),
		stateDir: filepath.Join(b.buildDir, "state-"+w.name),
	}
}

func (s *session) start() (time.Duration, error) {
	srv, d, err := spawn(s.b.bin, s.w.serverArgs(s.seed, s.stateDir))
	if err != nil {
		return 0, err
	}
	s.srv = srv
	return d, nil
}

// stop kills the server and deletes its state dir.
func (s *session) stop() error {
	if s.srv != nil {
		s.srv.kill()
		s.srv = nil
	}
	return os.RemoveAll(s.stateDir)
}

// absorb counts a phase's attempts and failures and keeps its answered
// ingest for the replay.
func (s *session) absorb(ph *phase) {
	for _, o := range ph.outcomes {
		s.b.rep.attempted++
		if !o.ok() {
			s.b.rep.failed++
			continue
		}
		if o.kind == ingestReq {
			s.acked = append(s.acked, ack{seq: o.seq, events: o.events, count: o.count, tenant: o.tenant})
		}
	}
}

// prefill ingests the workload's prefill closed-loop on one connection —
// at least one batch, since a timestamp window answers 409 to queries
// until its first arrival.
func (s *session) prefill() time.Duration {
	l := newLane(s.srv.base, s.acks)
	defer l.client.CloseIdleConnections()
	ph := &phase{start: now()}
	for events := 0; events < s.b.scaled(s.w.prefill); {
		rq := s.plan.ingest.next()
		rq.due = now()
		o := l.do(&rq, true)
		ph.outcomes = append(ph.outcomes, o)
		events += o.events
	}
	ph.end = now()
	s.absorb(ph)
	return ph.end.Sub(ph.start)
}

// nominal runs the warm-up and the nominal phase, together part of
// -seconds, as one open-loop schedule. Every request must succeed.
func (s *session) nominal(part float64) *phase {
	warm := s.b.phaseLen(warmShare * part)
	timed := s.b.phaseLen(nominalShare * part)
	ph := drive(s.plan, s.srv.base, s.acks, warm+timed, false)
	ph.from, ph.timed = ph.start.Add(warm), timed
	s.absorb(ph)
	if failed := ph.failed(); failed > 0 {
		s.b.rep.problem(s.w.name, "%d of %d warm-up and nominal requests failed", failed, len(ph.outcomes))
	}
	return ph
}

// reportNominal reports fail_ratio and the latency metrics of nominal
// phases: ingest_p50_ms and query_p50_ms are the median, over the windows
// of every phase, of each window's median latency. A slow spell that covers
// a minority of the windows moves them little; a change that slows every
// request moves every window.
func (b *bench) reportNominal(w *workload, phases ...*phase) {
	for _, m := range []struct {
		name string
		k    kind
	}{{"ingest_p50_ms", ingestReq}, {"query_p50_ms", queryReq}} {
		var windows []float64
		n := 0
		for _, ph := range phases {
			p50s, c := ph.windowP50s(m.k)
			windows, n = append(windows, p50s...), n+c
		}
		b.rep.metric(w.name, m.name, median(windows), n)
	}
	sent, failed := 0, 0
	for _, ph := range phases {
		sent, failed = sent+len(ph.outcomes), failed+ph.failed()
	}
	b.rep.info(w.name, "fail_ratio", float64(failed)/float64(max(sent, 1)), "fraction", sent)
}

// rounds is how many fresh servers an untraced run splits its load over,
// each with its own prefill, warm-up, nominal phase and checks. On the
// calibration box one server in several ran slow for its whole life while
// the next one, on the same inputs, did not; over three rounds such a
// server holds only a third of the windows, so the median moves little.
const rounds = 3

// runE2E is the untraced run of one workload: set-up, then rounds of
// prefill, warm-up, nominal phase and output checks, then memory.
func (b *bench) runE2E(w *workload) error {
	s := b.newSession(w)
	defer func() { s.stop() }()
	var setups []float64
	for i := 0; i < spawns; i++ {
		if err := s.stop(); err != nil {
			return err
		}
		d, err := s.start()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	b.rep.metric(w.name, "setup_s", median(setups), len(setups))
	var phases []*phase
	var rss []float64
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := s.stop(); err != nil {
				return err
			}
			s = b.newSession(w)
			if _, err := s.start(); err != nil {
				return err
			}
		}
		if d := s.prefill(); w.prefill > 0 {
			b.rep.info(w.name, "prefill_s", d.Seconds(), "s", 0)
		}
		phases = append(phases, s.nominal(1.0/rounds))
		if err := s.check(); err != nil {
			return err
		}
		mb, err := s.srv.peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	b.reportNominal(w, phases...)
	b.rep.metric(w.name, "rss_mb", median(rss), len(rss))
	return nil
}
