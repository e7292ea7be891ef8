package serve

import (
	"sync"
	"sync/atomic"

	"slidingsample/internal/stream"
)

// weightedIngester is the ingest half of stream.WeightedSampler: what the
// explicit-weight HTTP path needs. It is asserted separately so the
// subset-sum estimators — which forward precomputed weights into their
// sketches but answer estimates rather than samples — qualify too.
type weightedIngester interface {
	ObserveWeighted(value string, weight float64, ts int64)
	ObserveWeightedBatch(batch []stream.Element[string], weights []float64)
}

// Ingest staging bounds: admission is refused with ErrOverloaded once a
// single instance holds this many staged-but-unapplied elements (or this
// many staged batches), so a stalled applier translates into backpressure
// on the clients instead of unbounded queue memory.
const (
	// MaxQueuedIngestEvents bounds the staged elements per instance.
	MaxQueuedIngestEvents = 1 << 20
	// maxQueuedBatches bounds the staged batch headers per instance.
	maxQueuedBatches = 4096
)

// stagedBatch is one admitted-but-unapplied ingest batch: the element
// slice ready for ObserveBatch, plus the explicit weights when the request
// carried them.
type stagedBatch struct {
	elems   []stream.Element[string]
	weights []float64
}

// caps holds a built substrate behind its capability views. The registry
// layers — the named Instance and the fabric's tenants — never know
// concrete sampler types, only what each one can answer. A named Instance
// wires every view once (wireCaps); a fabric tenant keeps only its
// ingester, since the fabric probes its template's views once and each
// tenant call asserts the one view it needs against the same types
// (sizeView, weightView, estAtView, estView below).
type caps struct {
	ing ingester // always non-nil

	// Optional capability views (nil when the substrate lacks them).
	plain    stream.Sampler[string]      // Sample()
	timed    stream.TimedSampler[string] // SampleAt(now)
	weighted weightedIngester            // explicit ingest weights
	sizer    sizeView
	weigher  func(int64) float64                            // (1±ε) active-weight oracle
	estAt    func(int64, func(string) bool) (float64, bool) // subset sum at a query time
	est      func(pred func(string) bool) (float64, bool)   // subset sum, sequence windows
	barrier  func()
	closer   func()
	clock    func() (int64, bool) // timestamp substrates: latest time seen
}

// The optional query views that have no stream interface of their own:
// the (1±ε) window size and active weight, and the subset sum at a query
// time or, on sequence windows, at the last arrival.
type (
	sizeView   interface{ SizeAt(int64) uint64 }
	weightView interface{ TotalWeightAt(int64) float64 }
	estAtView  interface {
		EstimateAt(int64, func(string) bool) (float64, bool)
	}
	estView interface {
		Estimate(func(string) bool) (float64, bool)
	}
)

// wireCaps wires a substrate's capabilities by type assertion.
func wireCaps(built any) caps {
	c := caps{ing: built.(ingester)}
	if s, ok := built.(stream.Sampler[string]); ok {
		c.plain = s
	}
	if s, ok := built.(stream.TimedSampler[string]); ok {
		c.timed = s
	}
	if s, ok := built.(weightedIngester); ok {
		c.weighted = s
	}
	if s, ok := built.(sizeView); ok {
		c.sizer = s
	}
	if s, ok := built.(weightView); ok {
		c.weigher = s.TotalWeightAt
	} else if s, ok := built.(interface{ TotalWeight() float64 }); ok {
		// Sequence-window sharded weighted samplers: the oracle is clocked
		// on the arrival index, so the query takes no time argument (and
		// readClock already rejects at= in seq mode).
		c.weigher = func(int64) float64 { return s.TotalWeight() }
	}
	if s, ok := built.(estAtView); ok {
		c.estAt = s.EstimateAt
	}
	if s, ok := built.(estView); ok {
		c.est = s.Estimate
	}
	if s, ok := built.(interface{ Barrier() }); ok {
		c.barrier = s.Barrier
	}
	if s, ok := built.(interface{ Close() }); ok {
		c.closer = s.Close
	}
	if s, ok := built.(interface{ Clock() (int64, bool) }); ok {
		c.clock = s.Clock
	}
	return c
}

// Instance is one registered sampler: the substrate behind its capability
// views, plus the concurrency machinery that maps HTTP concurrency onto
// the single-goroutine sampler contract.
//
// Two locks split the hot path:
//
//   - qmu is the ADMISSION lock: a small mutex guarding the staging queue,
//     the monotone stream clock, and the admitted/applied sequence
//     counters. Ingest handlers validate outside any lock, then hold qmu
//     just long enough to check the clock and bounds and append the batch
//     — they never wait for sampler work, so concurrent producers admit
//     back to back.
//   - mu is the APPLICATION lock: whoever holds it may touch the substrate.
//     The per-instance applier goroutine takes it to drain the staging
//     queue in admission order; clock-advancing queries take it, drain the
//     queue themselves up to their admission snapshot, and then query;
//     read-only oracle queries (/size, /weight) take it SHARED after
//     waiting for the applier to catch up to their snapshot.
//
// Lock order is mu before qmu: mu holders may take qmu (to snapshot or
// drain), never the reverse. Determinism survives the pipeline because
// admission order is a total order (qmu), batches are applied in exactly
// that order by whichever goroutine drains them, and every query's
// serialization point — its clock and its visible prefix — is fixed under
// qmu in that same order.
type Instance struct {
	mu   sync.RWMutex
	spec Spec

	// The substrate behind its capability views (wireCaps).
	caps

	// Admission state, guarded by qmu. workCond wakes the applier when the
	// queue goes non-empty (or shutdown begins); appliedCond wakes oracle
	// readers waiting for the applier to reach their admission snapshot.
	qmu          sync.Mutex
	workCond     *sync.Cond
	appliedCond  *sync.Cond
	queue        []stagedBatch
	queuedEvents int
	admittedSeq  uint64 // batches admitted
	appliedSeq   uint64 // batches applied to the substrate
	events       uint64 // elements admitted (the Count the surface reports)
	last         int64  // stream clock: max ingest/query time admitted (ts mode)
	begun        bool
	closed       bool
	stopping     bool // applier shutdown flag

	queueCap int // staged-element bound (MaxQueuedIngestEvents; tests shrink it)

	// statsClean is true while the substrate's footprint walk is safe under
	// the read lock: no staged batches, and a barrier has flushed every
	// applied batch into the shards since the last apply. The applier and
	// the drain paths clear it; Stats' slow path sets it after its barrier.
	statsClean atomic.Bool

	// oracleMu serializes the weight-oracle scratch cache (the sharded
	// substrates memoize per-shard oracle sums per (count, time)) so
	// /weight rides the SHARED lock: concurrent scrapes serialize only
	// against each other on this small mutex, not against ingest.
	oracleMu sync.Mutex

	// built is the substrate behind the capability views, kept for the
	// snapshot codec (substrate.Snapshot re-resolves it by spec name).
	built any

	// wal, when non-nil, logs every admitted batch as NDJSON records for
	// crash recovery (DESIGN.md §10). It is set before the instance is
	// published to the registry and never changes afterwards, so the
	// ingest paths read it without a lock. walBase (guarded by qmu) is the
	// admitted-event count when the current WAL file was created or
	// truncated; a snapshot records events-walBase so recovery knows how
	// many WAL records it already covers.
	wal     *walFile
	walBase uint64
}

// newInstance takes the substrate with its capabilities (wireCaps) and
// starts the instance's applier goroutine.
func newInstance(spec Spec, built any, c caps) *Instance {
	inst := &Instance{spec: spec, caps: c, built: built}
	inst.workCond = sync.NewCond(&inst.qmu)
	inst.appliedCond = sync.NewCond(&inst.qmu)
	inst.queueCap = MaxQueuedIngestEvents
	go inst.runApplier()
	return inst
}

// Spec returns the instance's spec with the resolved seed.
func (in *Instance) Spec() Spec { return in.spec }

// seqMode reports whether the instance samples a sequence window.
func (in *Instance) seqMode() bool { return in.spec.Mode == "seq" }

// runApplier is the instance's single applier goroutine: it sleeps until
// admission signals work, then takes the application lock and drains the
// staging queue in admission order. Queries that drained first simply
// leave it nothing to do.
func (in *Instance) runApplier() {
	for {
		// The qmu pair deliberately stays manual: qmu must be RELEASED
		// before blocking on mu below — a deferred unlock would hold it
		// across mu.Lock and invert the declared mu-before-qmu order.
		in.qmu.Lock() //swlint:allow lockorder applier loop must release qmu before blocking on mu; defer would invert the declared hierarchy
		for len(in.queue) == 0 && !in.stopping {
			in.workCond.Wait()
		}
		if len(in.queue) == 0 && in.stopping {
			in.qmu.Unlock()
			return
		}
		in.qmu.Unlock()
		in.mu.Lock()
		in.drainLocked()
		in.mu.Unlock()
	}
}

// drainLocked (mu held) dequeues everything admitted so far and applies it
// in admission order.
func (in *Instance) drainLocked() {
	in.qmu.Lock()
	batches := in.queue
	in.queue = nil
	in.queuedEvents = 0
	in.qmu.Unlock()
	in.applyLocked(batches)
}

// applyLocked (mu held) feeds dequeued batches to the substrate in order
// and publishes the new applied sequence to waiting oracle readers.
func (in *Instance) applyLocked(batches []stagedBatch) {
	if len(batches) == 0 {
		return
	}
	for i := range batches {
		b := &batches[i]
		if b.weights != nil {
			in.weighted.ObserveWeightedBatch(b.elems, b.weights)
		} else {
			in.ing.ObserveBatch(b.elems)
		}
	}
	in.statsClean.Store(false)
	in.qmu.Lock()
	in.appliedSeq += uint64(len(batches))
	in.appliedCond.Broadcast()
	in.qmu.Unlock()
}

// checkBatch is the batch validation every ingest route shares, run before
// anything is committed. A nil slice is an absent field and a non-nil one
// is present, even when empty: timestamps are required in ts mode and must
// be absent in seq mode; present weights need a substrate with a
// precomputed-weight ingest path (weightsOK), one per value, each positive
// and finite; and timestamps must not decrease within the batch. It needs
// no instance state, so callers run it outside their locks, and it returns
// the batch's first and last timestamps for the cross-batch clock check.
func checkBatch(seqMode, weightsOK bool, values []string, timestamps []int64, weights []float64) (first, last int64, err error) {
	if seqMode {
		if timestamps != nil {
			return 0, 0, ErrBatchShape
		}
	} else if len(timestamps) != len(values) {
		return 0, 0, ErrBatchShape
	}
	if weights != nil {
		if !weightsOK {
			return 0, 0, ErrWeightsUnsupported
		}
		if len(weights) != len(values) {
			return 0, 0, ErrBatchShape
		}
		for _, w := range weights {
			if !(w > 0) || w > maxFinite {
				return 0, 0, ErrBadWeight
			}
		}
	}
	if len(timestamps) == 0 {
		return 0, 0, nil
	}
	first, last = timestamps[0], timestamps[0]
	for _, ts := range timestamps[1:] {
		if ts < last {
			return 0, 0, ErrTimeBackwards
		}
		last = ts
	}
	return first, last, nil
}

// Ingest validates (checkBatch) and admits one batch: values is required,
// timestamps and weights follow the window mode and the substrate. A
// rejected batch leaves the instance untouched.
//
// Ingest returns as soon as the batch is ADMITTED — sequence-numbered and
// staged under qmu — without waiting for the substrate; the applier (or
// the next draining query) applies staged batches in admission order,
// which is what keeps the draws byte-identical to a sequential run over
// the same admission order. A full staging queue is an explicit
// ErrOverloaded (HTTP 503), never unbounded memory.
func (in *Instance) Ingest(values []string, timestamps []int64, weights []float64) (uint64, error) {
	first, lastTS, err := checkBatch(in.seqMode(), in.weighted != nil, values, timestamps, weights)
	if err != nil {
		return 0, err
	}
	if len(values) == 0 {
		in.qmu.Lock()
		defer in.qmu.Unlock()
		if in.closed {
			return 0, ErrClosed
		}
		return in.events, nil
	}
	elems := make([]stream.Element[string], len(values))
	for i, v := range values {
		elems[i] = stream.Element[string]{Value: v}
		if timestamps != nil {
			elems[i].TS = timestamps[i]
		}
	}
	// Encode the WAL records outside the locks; admit appends them under
	// qmu so the log order IS the admission order.
	var walBuf []byte
	if in.wal != nil {
		walBuf, err = encodeWALBatch(elems, weights, !in.seqMode())
		if err != nil {
			return 0, err
		}
	}
	return in.admit(elems, weights, first, lastTS, walBuf)
}

// admit is Ingest's single qmu section: capacity and clock checks, then
// the queue append and the admission-clock advance. The deferred unlock
// covers every rejection branch (the lockorder split-unlock rule); defer
// costs nanoseconds against a batch admission, so the hot path permits
// it.
func (in *Instance) admit(elems []stream.Element[string], weights []float64, first, lastTS int64, walBuf []byte) (uint64, error) {
	in.qmu.Lock()
	defer in.qmu.Unlock()
	if in.closed {
		return 0, ErrClosed
	}
	if in.queuedEvents+len(elems) > in.queueCap || len(in.queue) >= maxQueuedBatches {
		return 0, ErrOverloaded
	}
	if !in.seqMode() && in.begun && first < in.last {
		return 0, ErrTimeBackwards
	}
	// Log before committing: a batch is only acknowledged once it is on
	// disk, so a crash never loses acknowledged ingest. A failed append
	// rejects the batch with the instance untouched.
	if walBuf != nil {
		if err := in.wal.append(walBuf); err != nil {
			return 0, err
		}
	}
	if !in.seqMode() {
		in.last, in.begun = lastTS, true
	}
	in.queue = append(in.queue, stagedBatch{elems: elems, weights: weights})
	in.queuedEvents += len(elems)
	in.admittedSeq++
	in.events += uint64(len(elems))
	total := in.events
	in.workCond.Signal()
	return total, nil
}

// maxFinite rejects +Inf (and, via the w > 0 guard, NaN) without pulling
// math into the hot validation loop.
const maxFinite = 1.7976931348623157e308

// advanceClockAndDrain (mu held) fixes a clock-advancing query's
// serialization point: in ONE qmu section it snapshots the staged prefix,
// resolves the query clock against the admitted stream clock (nil means
// "at the latest admitted time"; an explicit time must not regress — the
// repository-wide monotone query clock contract, surfaced as a 409 instead
// of the internal panic), and pushes an explicit query time into the
// admission clock so no later batch can be admitted below it. It then
// applies the snapshotted prefix, making the query's visible state exactly
// the admitted prefix at its serialization point. Querying a timestamp
// window that has seen nothing is an error — answering would pin the
// stream clock before the stream begins.
func (in *Instance) advanceClockAndDrain(at *int64) (int64, error) {
	in.qmu.Lock()
	batches := in.queue
	in.queue = nil
	in.queuedEvents = 0
	var now int64
	var err error
	switch {
	case in.seqMode():
		if at != nil {
			err = ErrNoClock
		}
	case !in.begun:
		err = ErrNoArrivals
	case at == nil:
		now = in.last
	case *at < in.last:
		err = ErrClockBackwards
	default:
		now = *at
		in.last = now
	}
	in.qmu.Unlock()
	// Apply even when the clock was rejected: the batches are admitted and
	// already dequeued; their application is unconditional, only ordered.
	in.applyLocked(batches)
	return now, err
}

// awaitReadClock resolves an "as of" time for a READ-ONLY oracle query and
// waits — holding no instance lock other than qmu, which the wait releases
// — until the applier has caught up to the query's admission snapshot.
// Older times are clamped to the stream clock (matching the substrates'
// own clamping) rather than rejected, since the query moves no state.
func (in *Instance) awaitReadClock(at *int64) (int64, error) {
	in.qmu.Lock()
	defer in.qmu.Unlock()
	var now int64
	switch {
	case in.seqMode():
		if at != nil {
			return 0, ErrNoClock
		}
	case !in.begun:
		return 0, ErrNoArrivals
	case at == nil || *at < in.last:
		now = in.last
	default:
		now = *at
	}
	target := in.admittedSeq
	for in.appliedSeq < target {
		in.appliedCond.Wait()
	}
	return now, nil
}

// Sample answers the /sample query: the current sample at the resolved
// query clock. Holds the write lock — sampling advances the clock, drains
// the staged prefix, and on sharded substrates flushes in-flight ingest
// (auto-barrier) before the shard queries fan out.
func (in *Instance) Sample(at *int64) ([]stream.Element[string], bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plain == nil {
		return nil, false, ErrUnsupported
	}
	now, err := in.advanceClockAndDrain(at)
	if err != nil {
		return nil, false, err
	}
	if in.barrier != nil {
		in.barrier()
	}
	if in.seqMode() {
		es, ok := in.plain.Sample()
		return es, ok, nil
	}
	if in.timed == nil {
		// A ts-mode substrate without SampleAt could only answer at its
		// last-arrival clock, silently mislabeling the response's time
		// (unreachable for the registrable substrates today — every
		// ts-mode sampler is a TimedSampler — but refuse rather than lie).
		return nil, false, ErrUnsupported
	}
	es, ok := in.timed.SampleAt(now)
	return es, ok, nil
}

// Size answers the /size query: the (1±ε) effective window size n(t) from
// the substrate's embedded exponential-histogram counter. Holds only the
// READ lock — the whole oracle path is read-only (DESIGN.md §7) — after
// waiting for the applier to reach the query's admission snapshot, so a
// sequential client always sees its own ingest reflected.
func (in *Instance) Size(at *int64) (uint64, error) {
	if in.sizer == nil {
		return 0, ErrUnsupported
	}
	now, err := in.awaitReadClock(at)
	if err != nil {
		return 0, err
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.sizer.SizeAt(now), nil
}

// Weight answers the /weight query: the (1±ε) active-weight total from the
// sharded substrates' per-shard weight oracles. Holds the READ lock — the
// oracle sums are memoized in a scratch cache, so concurrent scrapes
// serialize on oracleMu (a small mutex) rather than on ingest.
func (in *Instance) Weight(at *int64) (float64, error) {
	if in.weigher == nil {
		return 0, ErrUnsupported
	}
	now, err := in.awaitReadClock(at)
	if err != nil {
		return 0, err
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	in.oracleMu.Lock()
	defer in.oracleMu.Unlock()
	return in.weigher(now), nil
}

// SubsetSum answers the /subsetsum query: the unbiased Horvitz–Thompson
// estimate of Σ w(p) over active elements satisfying pred. Write lock:
// estimator queries advance the clock, drain the staged prefix, and flush
// sharded ingest.
func (in *Instance) SubsetSum(at *int64, pred func(string) bool) (float64, bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.estAt == nil && in.est == nil {
		return 0, false, ErrUnsupported
	}
	now, err := in.advanceClockAndDrain(at)
	if err != nil {
		return 0, false, err
	}
	if in.barrier != nil {
		in.barrier()
	}
	if in.seqMode() || in.estAt == nil {
		if in.est == nil {
			// Unreachable for today's registrable substrates (every seq
			// estimator has Estimate), but refuse rather than panic if a
			// future substrate exposes only the other half.
			return 0, false, ErrUnsupported
		}
		v, ok := in.est(pred)
		return v, ok, nil
	}
	v, ok := in.estAt(now, pred)
	return v, ok, nil
}

// Stats answers the /samplers listing. The fast path — nothing staged,
// nothing unapplied, and a barrier has flushed the shards since the last
// apply — reads the footprint under the READ lock, so concurrent /stats
// scrapes neither serialize ingest nor each other. Otherwise it takes the
// write lock once to drain, barrier, and mark the state clean; follow-up
// scrapes ride the fast path again.
func (in *Instance) Stats() (count uint64, k, words, maxWords int) {
	in.qmu.Lock()
	pending := len(in.queue) > 0 || in.appliedSeq != in.admittedSeq
	count = in.events
	in.qmu.Unlock()
	if !pending && in.statsClean.Load() {
		if k, words, maxWords, ok := in.statsFast(); ok {
			return count, k, words, maxWords
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.drainLocked()
	if in.barrier != nil {
		in.barrier()
	}
	in.statsClean.Store(true)
	return count, in.ing.K(), in.ing.Words(), in.ing.MaxWords()
}

// statsFast reads the footprint under the read lock. Re-checks statsClean
// under the lock: an applier that slipped in between the caller's probe
// and the RLock would have cleared the flag before releasing mu, and it
// cannot run while we hold the read side.
func (in *Instance) statsFast() (k, words, maxWords int, ok bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if !in.statsClean.Load() {
		return 0, 0, 0, false
	}
	return in.ing.K(), in.ing.Words(), in.ing.MaxWords(), true
}

// Close drains and stops the instance: admission is sealed, the staged
// queue is applied in order, a final barrier flushes any in-flight sharded
// ingest, the shard goroutines are stopped, and the applier goroutine
// exits. The substrate stays queryable afterwards (sharded Close is made
// for this); only further ingest is refused.
func (in *Instance) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.beginClose() {
		return
	}
	in.drainLocked()
	if in.barrier != nil {
		in.barrier()
	}
	if in.closer != nil {
		in.closer()
	}
}

// beginClose seals admission under qmu, waking the applier so it can
// observe stopping and exit. Reports false when already closed.
func (in *Instance) beginClose() bool {
	in.qmu.Lock()
	defer in.qmu.Unlock()
	if in.closed {
		return false
	}
	in.closed = true
	in.stopping = true
	in.workCond.Broadcast()
	return true
}
