package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// now is the benchmark's one wall-clock read; every duration it reports is
// a difference of two now() values.
func now() time.Time {
	return time.Now() //swlint:allow detrand benchmark harness: wall-clock latency and throughput measurement only; never feeds sampler state or seeds
}

// lane is one client connection: its requests go strictly one after
// another, so a workload's lanes are its connections.
type lane struct {
	client *http.Client
	base   string
	acks   *ackSet
	buf    bytes.Buffer
}

func newLane(base string, acks *ackSet) *lane {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &lane{client: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, acks: acks}
}

// outcome is one request's answer and timing. status 0 is a transport
// error.
type outcome struct {
	kind    kind
	seq     int
	events  int
	tenant  string
	status  int
	count   uint64 // ingest: the admission count the server returned
	due     time.Time
	start   time.Time // the last send
	end     time.Time
	refused int // 503 answers retried before this one
}

func (o *outcome) ok() bool { return o.status >= 200 && o.status < 300 }

// do sends rq and reads the whole answer. With retry503 a 503 (the staging
// queue is full) is retried after a millisecond, as the closed-loop phases
// must; elsewhere it is an ordinary failure.
func (l *lane) do(rq *request, retry503 bool) outcome {
	// Fabric queries never create tenants, so a query that overtook its
	// tenant's first batch on the other connection would 404: it waits.
	if rq.kind == queryReq && rq.tenant != "" {
		l.acks.wait(rq.tenant)
	}
	o := outcome{kind: rq.kind, seq: rq.seq, events: len(rq.b.values), tenant: rq.tenant, due: rq.due}
	for {
		o.start = now()
		o.status, o.count = l.send(rq)
		o.end = now()
		if o.status != http.StatusServiceUnavailable || !retry503 {
			break
		}
		o.refused++
		time.Sleep(time.Millisecond)
	}
	if rq.kind == ingestReq && rq.tenant != "" {
		l.acks.mark(rq.tenant)
	}
	return o
}

func (l *lane) send(rq *request) (status int, count uint64) {
	method, ctype := http.MethodGet, ""
	var body io.Reader
	if rq.kind == ingestReq {
		method, ctype = http.MethodPost, "application/json"
		if rq.ndjson {
			ctype = "application/x-ndjson"
		}
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(method, l.base+rq.path, body)
	if err != nil {
		return 0, 0
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, 0
	}
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0
	}
	if rq.kind == ingestReq && resp.StatusCode == http.StatusOK {
		var ack struct {
			Count uint64 `json:"count"`
		}
		if json.Unmarshal(l.buf.Bytes(), &ack) != nil {
			return 0, 0
		}
		count = ack.Count
	}
	return resp.StatusCode, count
}

// ackSet records which tenants have had an ingest answered.
type ackSet struct {
	mu sync.Mutex
	m  map[string]chan struct{} // closed once the tenant's first ingest is answered
}

func newAckSet() *ackSet { return &ackSet{m: make(map[string]chan struct{})} }

// chanLocked returns id's channel, creating it; a.mu must be held.
func (a *ackSet) chanLocked(id string) chan struct{} {
	c := a.m[id]
	if c == nil {
		c = make(chan struct{})
		a.m[id] = c
	}
	return c
}

func (a *ackSet) mark(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.chanLocked(id)
	select {
	case <-c:
	default:
		close(c)
	}
}

// wait returns once id is marked. The ingest it waits for was drawn
// earlier from the same FIFO, so it is in flight or answered already; the
// timeout only turns a generator bug into a failed request, not a hang.
func (a *ackSet) wait(id string) {
	a.mu.Lock()
	c := a.chanLocked(id)
	a.mu.Unlock()
	select {
	case <-c:
	case <-time.After(time.Minute):
	}
}

// phase is the record of one load phase.
type phase struct {
	start, end  time.Time
	outcomes    []outcome
	late        []time.Duration // open loop: dispatch time − due time
	inflightMax int64
	// from and timed delimit the part whose latencies count: requests due
	// in [from, from+timed).
	from  time.Time
	timed time.Duration
}

func (ph *phase) failed() int {
	n := 0
	for _, o := range ph.outcomes {
		if !o.ok() {
			n++
		}
	}
	return n
}

// lanesFor opens each group's connections to base.
func lanesFor(p *plan, base string, acks *ackSet) [][]*lane {
	ls := make([][]*lane, len(p.groups))
	for i, g := range p.groups {
		for j := 0; j < g.lanes; j++ {
			ls[i] = append(ls[i], newLane(base, acks))
		}
	}
	return ls
}

func closeLanes(ls [][]*lane) {
	for _, g := range ls {
		for _, l := range g {
			l.client.CloseIdleConnections()
		}
	}
}

// drive runs one load phase of dur. Open-loop groups send on their nominal
// schedule whether or not earlier requests have been answered (independent
// exporters and dashboards do not wait for each other); a request waiting
// for a free connection is in flight, and its latency runs from when it was
// due. At the peak, every group not marked openAtPeak goes closed-loop:
// each of its connections sends the next request as soon as the previous
// one is answered, and 503s are retried, since at the peak a full staging
// queue is backpressure, not failure.
func drive(p *plan, base string, acks *ackSet, dur time.Duration, peak bool) *phase {
	lanes := lanesFor(p, base, acks)
	defer closeLanes(lanes)
	ph := &phase{start: now()}
	deadline := ph.start.Add(dur)
	var inflight atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	keep := func(outs []outcome, late []time.Duration, maxIn int64) {
		mu.Lock()
		defer mu.Unlock()
		ph.outcomes = append(ph.outcomes, outs...)
		ph.late = append(ph.late, late...)
		ph.inflightMax = max(ph.inflightMax, maxIn)
	}
	for gi, g := range p.groups {
		g.startPhase()
		if peak && !g.openAtPeak {
			var gmu sync.Mutex
			for _, l := range lanes[gi] {
				wg.Add(1)
				go func(l *lane) {
					defer wg.Done()
					var outs []outcome
					for now().Before(deadline) {
						gmu.Lock()
						rq, _ := g.take()
						gmu.Unlock()
						rq.due = now()
						outs = append(outs, l.do(&rq, true))
					}
					keep(outs, nil, 0)
				}(l)
			}
			continue
		}
		// The buffer lets the dispatcher stay on schedule while a stalled
		// server builds a backlog; inflight_max reports how deep it got.
		ch := make(chan *request, 1<<14)
		for _, l := range lanes[gi] {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				var outs []outcome
				for rq := range ch {
					outs = append(outs, l.do(rq, peak))
					inflight.Add(-1)
				}
				keep(outs, nil, 0)
			}(l)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ch)
			var late []time.Duration
			var maxIn int64
			// A request due after the phase stays in its source for the next
			// phase: a dropped first batch would strand its tenant's queries.
			for _, off := g.due(); off < dur; _, off = g.due() {
				rq, off := g.take()
				rq.due = ph.start.Add(off)
				// time.Sleep wakes up to a millisecond late, since the
				// runtime's poller waits in whole milliseconds; every latency
				// includes that. A nanosleep wait woke on time but made the
				// run-to-run spreads wider (README.md "Calibration").
				if d := rq.due.Sub(now()); d > 0 {
					time.Sleep(d)
				}
				late = append(late, now().Sub(rq.due))
				maxIn = max(maxIn, inflight.Add(1))
				ch <- &rq
			}
			keep(nil, late, maxIn)
		}()
	}
	wg.Wait()
	ph.end = now()
	return ph
}

// latencies returns the sorted due-to-answer latencies of the outcomes of
// kind k that were due at or after from.
func latencies(outs []outcome, k kind, from time.Time) []time.Duration {
	var d []time.Duration
	for i := range outs {
		if o := &outs[i]; o.kind == k && !o.due.Before(from) {
			d = append(d, o.end.Sub(o.due))
		}
	}
	sortDurations(d)
	return d
}

// windowP50s splits the timed part of ph into windows of about a second by
// due time and returns each window's median latency of kind k in ms, with
// the number of latencies behind them.
func (ph *phase) windowP50s(k kind) ([]float64, int) {
	windows := max(int(ph.timed/time.Second), 1)
	per := make([][]time.Duration, windows)
	n := 0
	for i := range ph.outcomes {
		o := &ph.outcomes[i]
		off := o.due.Sub(ph.from)
		if o.kind != k || off < 0 || off >= ph.timed {
			continue
		}
		w := int(int64(off) * int64(windows) / int64(ph.timed))
		per[w] = append(per[w], o.end.Sub(o.due))
		n++
	}
	var p50s []float64
	for _, d := range per {
		if len(d) > 0 {
			sortDurations(d)
			p50s = append(p50s, ms(quantile(d, 0.5)))
		}
	}
	return p50s, n
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
