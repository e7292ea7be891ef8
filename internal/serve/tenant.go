package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
	"slidingsample/internal/xrand"
)

// The multi-tenant sampler fabric: one template Spec stamped out lazily per
// tenant, behind a striped keyed registry. The paper's samplers keep
// O(k·log n) words each, so the serving-scale win is packing millions of
// them into one process; three choices here are load-bearing for that:
//
//   - LOOKUP NEVER SERIALIZES INGEST: the registry is split into
//     tenantStripes shards keyed by a hash of the tenant id. The hot path
//     (an existing tenant) takes one stripe RLock just long enough for a
//     map read; first arrivals take that stripe's write lock only, so a
//     thundering herd of new tenants contends per stripe, not globally.
//   - TENANTS ARE LIGHTWEIGHT: a tenant is its substrate behind one
//     ingester interface plus one sync.Mutex and three clock/count words
//     (48 bytes) — NOT a full Instance, and not even the named instances'
//     wired capability views: every tenant is built from the template, so
//     the fabric probes which views exist once, at registration, and each
//     tenant call asserts the one view it needs. The named instances each
//     carry a staging queue, two conds, and a dedicated applier goroutine
//     (kilobytes of stack apiece), which is the right trade for a handful
//     of hot streams and the wrong one a million times over. Per-tenant
//     traffic is assumed thin, so tenant ingest validates outside the lock
//     and applies synchronously under the tenant's own mutex; cross-tenant
//     ingest still runs fully in parallel. (A plain Mutex, not RWMutex, on
//     purpose: it is 24 bytes smaller, and clock-advancing queries need
//     exclusivity anyway.)
//   - DETERMINISM IS PER TENANT: every tenant's substrate is seeded
//     xrand.TenantSeed(fabric base seed, tenant id), a pure function of the
//     pair, and queries draw no randomness (the package invariant). So a
//     tenant's responses are byte-deterministic given its OWN admission
//     order, no matter how other tenants' arrivals interleave — the
//     WithSeed contract, per key.
//
// Ingest scratch (the element batch built from each request) comes from a
// typed slab free-list (internal/slab): the substrates consume batches
// synchronously and retain only the element values, so the buffer recycles
// as soon as apply returns, and steady-state ingest does not allocate per
// request for scratch.
const tenantStripes = 64

// Serving-grade caps on the fabric surface: tenant creation is a
// network-reachable side effect, so both the tenant count and the implied
// eager memory are bounded at registration time.
const (
	// DefaultMaxTenants is the per-fabric tenant budget when registration
	// does not choose one.
	DefaultMaxTenants = 1 << 20
	// MaxTenantsCap bounds any fabric's tenant budget.
	MaxTenantsCap = 1 << 21
	// MaxFabricWords bounds maxTenants × (estimated steady per-tenant
	// words), so one fabric registration cannot commit the process to more
	// than ~2 GB of sampler state even at its full tenant budget.
	MaxFabricWords = 1 << 28
	// maxTenantIDBytes bounds one tenant id (ids are map keys held for the
	// fabric's lifetime).
	maxTenantIDBytes = 128
)

// tenant is one lazily created sampler: the substrate behind its ingester
// view, a mutex mapping HTTP concurrency onto the single-goroutine sampler
// contract, and the same admission state the named instances keep (event
// count and the monotone stream clock). Its other views are asserted per
// call, once the fabric's probe flags show they exist.
type tenant struct {
	mu     sync.Mutex
	ing    ingester
	events uint64
	last   int64 // stream clock: max ingest/query time applied (ts mode)
	begun  bool
}

// tenantStripe is one shard of the fabric's keyed registry.
type tenantStripe struct {
	mu sync.RWMutex
	m  map[string]*tenant
}

// Fabric is a multi-tenant sampler registry: one template Spec, one tenant
// budget, and per-tenant samplers created lazily on first arrival. Safe for
// concurrent use.
type Fabric struct {
	spec Spec // template; Seed is the fabric's RESOLVED base seed

	// Capability flags probed from a throwaway template build at
	// registration. Every tenant is built from the template, so each has
	// exactly these views: requests that can never succeed (explicit
	// weights on a weight-function substrate, /size on a sampler without an
	// oracle) are refused without creating the tenant, and a flag that is
	// set makes the tenant call's view assertion safe.
	weightedOK, sampleOK, sampleAtOK, sizeOK, estAtOK, estOK bool

	maxTenants int64
	live       atomic.Int64
	closed     atomic.Bool
	stripes    [tenantStripes]tenantStripe
}

// NewFabric validates the template and returns an empty fabric. maxTenants
// is the tenant budget (0 selects DefaultMaxTenants). The template is built
// once and discarded to probe its capabilities and its construction
// footprint; templates whose substrates own goroutines (the sharded
// samplers) are rejected — at fabric scale, parallelism comes from the
// tenant count, and a million shard pools would be a goroutine bomb.
func NewFabric(spec Spec, maxTenants int) (*Fabric, error) {
	if err := validateServable(spec); err != nil {
		return nil, err
	}
	if strings.HasPrefix(spec.Sampler, "sharded-") {
		return nil, fmt.Errorf("serve: fabric template %q: sharded substrates own goroutine pools; fabrics scale by tenant count, use the non-sharded sampler", spec.Sampler)
	}
	if maxTenants == 0 {
		maxTenants = DefaultMaxTenants
	}
	if maxTenants < 0 || maxTenants > MaxTenantsCap {
		return nil, fmt.Errorf("serve: maxTenants %d outside [1, %d]", maxTenants, MaxTenantsCap)
	}
	probe, _, err := substrate.New(spec)
	if err != nil {
		return nil, err
	}
	pc := wireCaps(probe)
	if pc.closer != nil || pc.barrier != nil {
		// Belt over the prefix check: any substrate with lifecycle hooks
		// owns background machinery the fabric refuses to multiply.
		return nil, fmt.Errorf("serve: fabric template %q: substrate has lifecycle hooks (goroutines); not fabric-servable", spec.Sampler)
	}
	// Coarse steady-state words per tenant: the construction footprint plus
	// the k retained slots the sampler grows into (6 words ≈ a retained
	// node). Deliberately an admission bound, not an accounting claim — the
	// word model proper lives with the substrates (DESIGN.md §6).
	perTenant := int64(pc.ing.Words()) + 6*int64(pc.ing.K())
	if perTenant*int64(maxTenants) > MaxFabricWords {
		return nil, fmt.Errorf("serve: fabric budget %d tenants × ~%d words/tenant exceeds the serving cap %d words; lower maxTenants or k", maxTenants, perTenant, MaxFabricWords)
	}
	resolved := spec
	resolved.Seed = substrate.ResolveSeed(spec.Seed)
	f := &Fabric{
		spec:       resolved,
		weightedOK: pc.weighted != nil,
		sampleOK:   pc.plain != nil,
		sampleAtOK: pc.timed != nil,
		sizeOK:     pc.sizer != nil,
		estAtOK:    pc.estAt != nil,
		estOK:      pc.est != nil,
		maxTenants: int64(maxTenants),
	}
	for i := range f.stripes {
		f.stripes[i].m = make(map[string]*tenant)
	}
	return f, nil
}

// Spec returns the template spec with the resolved base seed.
func (f *Fabric) Spec() Spec { return f.spec }

// MaxTenants returns the fabric's tenant budget.
func (f *Fabric) MaxTenants() int { return int(f.maxTenants) }

// Tenants returns the current live tenant count.
func (f *Fabric) Tenants() int { return int(f.live.Load()) }

// seqMode reports whether the template samples a sequence window.
func (f *Fabric) seqMode() bool { return f.spec.Mode == "seq" }

// Close seals the fabric: further ingest (and tenant creation) is refused.
// Tenants stay queryable — they own no goroutines (enforced at
// registration), so there is nothing to stop or drain.
func (f *Fabric) Close() { f.closed.Store(true) }

// validTenantID bounds tenant ids: they are lifetime map keys and path
// segments, so they must be non-empty, short, and free of separators.
func validTenantID(id string) error {
	if id == "" || len(id) > maxTenantIDBytes || strings.ContainsAny(id, "/ \t\n") {
		return fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	return nil
}

// stripeOf picks the registry stripe for a tenant id (FNV-1a 64, masked —
// tenantStripes is a power of two).
func stripeOf(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h & (tenantStripes - 1))
}

// tenantFor resolves a tenant through the striped registry. The fast path
// is one stripe RLock around a map read; with create set, a miss falls into
// the stripe's write lock where exactly one racer builds the sampler.
func (f *Fabric) tenantFor(id string, create bool) (*tenant, error) {
	if err := validTenantID(id); err != nil {
		return nil, err
	}
	st := &f.stripes[stripeOf(id)]
	st.mu.RLock()
	tn := st.m[id]
	st.mu.RUnlock()
	if tn != nil {
		return tn, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return f.createTenant(st, id)
}

// createTenant is the first-arrival slow path: re-check under the stripe
// write lock (losers of the creation race adopt the winner's sampler — the
// exactly-one-sampler-per-tenant invariant), charge the tenant budget, and
// build the substrate seeded by (base seed, tenant id).
func (f *Fabric) createTenant(st *tenantStripe, id string) (*tenant, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if tn := st.m[id]; tn != nil {
		return tn, nil
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	// Optimistic charge with rollback: the counter may transiently overshoot
	// the budget by in-flight creators, but never commits past it.
	if f.live.Add(1) > f.maxTenants {
		f.live.Add(-1)
		return nil, fmt.Errorf("%w (budget %d)", ErrTenantBudget, f.maxTenants)
	}
	spec := f.spec
	spec.Seed = xrand.TenantSeed(f.spec.Seed, id)
	built, _, err := substrate.New(spec)
	if err != nil {
		f.live.Add(-1)
		return nil, err
	}
	tn := &tenant{ing: built.(ingester)}
	st.m[id] = tn
	return tn, nil
}

// Ingest validates and applies one batch for the tenant, creating the
// tenant on first arrival. The batch checks are a named instance's
// (checkBatch: a nil slice is an absent field) and run before anything is
// created or locked, so a rejected batch leaves the fabric untouched —
// including tenant creation: an invalid batch never creates its tenant,
// and an EMPTY batch (no arrival) does not either; it reports the existing
// tenant's count, or 0 for a tenant that does not exist yet.
func (f *Fabric) Ingest(id string, values []string, timestamps []int64, weights []float64) (uint64, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	first, lastTS, err := checkBatch(f.seqMode(), f.weightedOK, values, timestamps, weights)
	if err != nil {
		return 0, err
	}
	if len(values) == 0 {
		if err := validTenantID(id); err != nil {
			return 0, err
		}
		st := &f.stripes[stripeOf(id)]
		st.mu.RLock()
		tn := st.m[id]
		st.mu.RUnlock()
		if tn == nil {
			return 0, nil
		}
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return tn.events, nil
	}
	elems := batchElems.Get(len(values))
	for i, v := range values {
		elems[i] = stream.Element[string]{Value: v}
		if timestamps != nil {
			elems[i].TS = timestamps[i]
		}
	}
	tn, err := f.tenantFor(id, true)
	if err != nil {
		batchElems.Put(elems)
		return 0, err
	}
	count, err := tn.apply(f.seqMode(), elems, weights, first, lastTS)
	// The substrates consume the batch synchronously and retain only the
	// element values, so the scratch recycles the moment apply returns.
	batchElems.Put(elems)
	return count, err
}

// apply feeds one pre-validated batch to the substrate under the tenant
// mutex: the cross-batch clock check against this tenant's stream clock,
// then the observe call. Non-nil weights select the precomputed-weight
// path (capability verified by the caller against the template probe).
func (tn *tenant) apply(seqMode bool, elems []stream.Element[string], weights []float64, first, lastTS int64) (uint64, error) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if !seqMode {
		if tn.begun && first < tn.last {
			return 0, ErrTimeBackwards
		}
		tn.last, tn.begun = lastTS, true
	}
	if weights != nil {
		tn.ing.(weightedIngester).ObserveWeightedBatch(elems, weights)
	} else {
		tn.ing.ObserveBatch(elems)
	}
	tn.events += uint64(len(elems))
	return tn.events, nil
}

// queryClock resolves an "as of" time against the tenant's monotone stream
// clock (tenant mutex held). Clock-advancing queries (advance=true: sample,
// subsetsum) reject regressions and push explicit times into the clock;
// read-only oracles clamp older times instead, matching the named
// instances' semantics endpoint for endpoint.
func (tn *tenant) queryClock(seqMode bool, at *int64, advance bool) (int64, error) {
	switch {
	case seqMode:
		if at != nil {
			return 0, ErrNoClock
		}
		return 0, nil
	case !tn.begun:
		return 0, ErrNoArrivals
	case at == nil:
		return tn.last, nil
	case *at < tn.last:
		if advance {
			return 0, ErrClockBackwards
		}
		return tn.last, nil
	default:
		if advance {
			tn.last = *at
		}
		return *at, nil
	}
}

// Sample answers /tenant/{id}/sample: the tenant's current sample at the
// resolved query clock.
func (f *Fabric) Sample(id string, at *int64) ([]stream.Element[string], bool, error) {
	tn, err := f.tenantFor(id, false)
	if err != nil {
		return nil, false, err
	}
	if !f.sampleOK {
		return nil, false, ErrUnsupported
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	now, err := tn.queryClock(f.seqMode(), at, true)
	if err != nil {
		return nil, false, err
	}
	if f.seqMode() {
		es, ok := tn.ing.(stream.Sampler[string]).Sample()
		return es, ok, nil
	}
	if !f.sampleAtOK {
		return nil, false, ErrUnsupported
	}
	es, ok := tn.ing.(stream.TimedSampler[string]).SampleAt(now)
	return es, ok, nil
}

// Size answers /tenant/{id}/size: the (1±ε) effective window size.
func (f *Fabric) Size(id string, at *int64) (uint64, error) {
	tn, err := f.tenantFor(id, false)
	if err != nil {
		return 0, err
	}
	if !f.sizeOK {
		return 0, ErrUnsupported
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	now, err := tn.queryClock(f.seqMode(), at, false)
	if err != nil {
		return 0, err
	}
	return tn.ing.(sizeView).SizeAt(now), nil
}

// SubsetSum answers /tenant/{id}/subsetsum: the Horvitz–Thompson estimate
// of Σ w(p) over the tenant's active elements satisfying pred.
func (f *Fabric) SubsetSum(id string, at *int64, pred func(string) bool) (float64, bool, error) {
	tn, err := f.tenantFor(id, false)
	if err != nil {
		return 0, false, err
	}
	if !f.estAtOK && !f.estOK {
		return 0, false, ErrUnsupported
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	now, err := tn.queryClock(f.seqMode(), at, true)
	if err != nil {
		return 0, false, err
	}
	if f.seqMode() || !f.estAtOK {
		if !f.estOK {
			return 0, false, ErrUnsupported
		}
		v, ok := tn.ing.(estView).Estimate(pred)
		return v, ok, nil
	}
	v, ok := tn.ing.(estAtView).EstimateAt(now, pred)
	return v, ok, nil
}

// Count returns the tenant's event count (0 for a tenant that has not
// arrived yet — the same shape an empty-batch ingest reports).
func (f *Fabric) Count(id string) (uint64, error) {
	tn, err := f.tenantFor(id, false)
	if err != nil {
		return 0, err
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.events, nil
}
