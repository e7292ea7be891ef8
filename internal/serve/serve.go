// Package serve is the HTTP serving layer over the unified sampler
// interfaces: a named-sampler registry, a batched JSON/NDJSON ingest
// endpoint feeding ObserveBatch/ObserveWeightedBatch, and concurrent read
// endpoints (/sample, /size, /weight, /subsetsum) — the deployment shape
// the paper's worst-case memory bounds were designed for (a sampler is
// long-lived in-memory state; traffic is many small writes and reads
// against it). See DESIGN.md §7 for the architecture.
//
// Concurrency model (per registered instance; DESIGN.md §7 has the full
// argument):
//
//   - Ingest is PIPELINED: handlers validate outside any lock, then hold a
//     small admission mutex just long enough to check the monotone stream
//     clock and the staging bounds and append the batch to a per-instance
//     staging queue — concurrent producers admit back to back without
//     waiting for sampler work. A single per-instance applier goroutine
//     drains the queue in admission order into ObserveBatch /
//     ObserveWeightedBatch under the write lock. The queue is bounded
//     (MaxQueuedIngestEvents); admission past the bound is an explicit
//     ErrOverloaded (HTTP 503), never unbounded memory.
//   - Clock-advancing queries (/sample, /subsetsum) hold the WRITE lock:
//     they fix their serialization point under the admission mutex
//     (snapshotting the staged prefix and the clock atomically), drain
//     that prefix themselves, barrier, and query — so every response is a
//     deterministic function of the admission order, applier timing be
//     damned. On sharded substrates the per-shard sub-queries then fan out
//     across internal/parallel's bounded worker pool.
//   - /size holds the READ lock: SizeAt is a read-only query end to end —
//     ehist.Counter.EstimateAt neither advances the clock nor expires
//     buckets (made so in PR 3 precisely for this path). It first waits
//     for the applier to reach its admission snapshot, so a sequential
//     client always sees its own ingest reflected.
//   - /weight rides the READ lock too: the sharded weight oracles memoize
//     per (dispatch count, query time) in a shared scratch cache, which a
//     small dedicated mutex (oracleMu) serializes — concurrent scrapes
//     contend with each other, not with ingest.
//   - /samplers (Stats) reads the footprint under the READ lock whenever
//     nothing is staged and a barrier has flushed the shards since the
//     last apply; only the first scrape after ingest pays the write lock.
//
// Every response is deterministic under a fixed Spec.Seed: two servers
// given the same registrations and the same ADMISSION order return
// byte-identical bodies — the staging queue preserves admission order, and
// each query's visible prefix and clock are fixed atomically at its
// serialization point — which is how the end-to-end tests cross-check the
// HTTP surface against directly-driven samplers.
package serve

import (
	"errors"
	"fmt"
	"strings"

	"slidingsample/internal/stream"
	"slidingsample/internal/substrate"
)

// Errors returned by the serving layer, mapped onto HTTP status codes by
// the handlers (statusFor): unknown names are 404, malformed requests 400,
// and stream-state conflicts — non-monotone clocks, queries before the
// first arrival — 409.
var (
	// ErrUnknownSampler: no registry entry under the requested name.
	ErrUnknownSampler = errors.New("serve: unknown sampler name")
	// ErrDuplicateName: Register with a name already in the registry.
	ErrDuplicateName = errors.New("serve: sampler name already registered")
	// ErrBatchShape: ingest slices of unequal lengths, or timestamps
	// missing/present against the window mode.
	ErrBatchShape = errors.New("serve: batch needs equally long values and timestamps/weights, with timestamps exactly on timestamp-window samplers")
	// ErrBadWeight: an ingest weight that is not positive and finite.
	ErrBadWeight = errors.New("serve: weights must be positive and finite")
	// ErrWeightsUnsupported: explicit weights for a substrate that derives
	// weights from its construction-time weight function.
	ErrWeightsUnsupported = errors.New("serve: substrate derives weights from its weight function and takes no explicit weights")
	// ErrTimeBackwards: ingest timestamps that regress against the
	// instance's monotone stream clock.
	ErrTimeBackwards = errors.New("serve: ingest timestamps must be non-decreasing")
	// ErrClockBackwards: a clock-advancing query (sample, subsetsum) at a
	// time before the instance's stream clock.
	ErrClockBackwards = errors.New("serve: query clock must be non-decreasing")
	// ErrNoArrivals: an "as of" query on a timestamp window that has seen
	// no elements (answering would pin the stream clock arbitrarily).
	ErrNoArrivals = errors.New("serve: timestamp window has no arrivals yet")
	// ErrNoClock: an at= parameter on a sequence-window sampler.
	ErrNoClock = errors.New("serve: sequence windows have no query clock")
	// ErrUnsupported: the substrate lacks the queried capability (e.g.
	// /weight on a uniform sampler, /subsetsum on a non-estimator).
	ErrUnsupported = errors.New("serve: substrate does not support this endpoint")
	// ErrClosed: ingest after the server began its graceful shutdown.
	ErrClosed = errors.New("serve: server is shutting down")
	// ErrOverloaded: the instance's ingest staging queue is full — the
	// applier is not keeping up with admission. Surfaced as 503 so clients
	// back off and retry instead of the queue growing without bound.
	ErrOverloaded = errors.New("serve: ingest staging queue is full, retry later")
	// ErrLineTooLong: one NDJSON ingest line exceeded the scanner's bound.
	// Surfaced as 413 — the batch can be split, so the condition is the
	// client's to fix, not transient.
	ErrLineTooLong = errors.New("serve: NDJSON line exceeds the per-line limit")
	// ErrWALWrite: the durable instance could not log the batch, so it was
	// not admitted (HTTP 500). The log is rolled back to its last whole
	// batch; if that fails too, every later ingest on the instance fails.
	ErrWALWrite = errors.New("serve: wal append failed")
	// ErrUnknownFabric: no fabric registered under the requested name.
	ErrUnknownFabric = errors.New("serve: unknown fabric name")
	// ErrUnknownTenant: a query for a tenant that has never ingested
	// (tenants are created lazily on first arrival; queries never create).
	ErrUnknownTenant = errors.New("serve: unknown tenant (tenants are created on first ingest)")
	// ErrTenantBudget: a first arrival that would exceed the fabric's tenant
	// budget. Surfaced as 507 — admitting the tenant would commit memory the
	// operator has capped, and the condition does not clear by retrying.
	ErrTenantBudget = errors.New("serve: fabric tenant budget exhausted")
	// ErrBadTenantID: a tenant id that is empty, too long, or carries
	// path/whitespace characters.
	ErrBadTenantID = errors.New("serve: tenant id must be non-empty, at most 128 bytes, without slashes or whitespace")
)

// Spec names a substrate the registry can serve — the shared
// name→constructor vocabulary of internal/substrate, which cmd/swsample's
// flags resolve through too, so the CLI and HTTP surfaces cannot drift.
type Spec = substrate.Spec

// Serving-grade caps on the spec parameters that drive EAGER allocation
// at construction: registration is a network-reachable endpoint, so a
// single unauthenticated POST must not be able to allocate the process to
// death. K sizes per-slot state in every substrate, G spawns goroutines
// and buffered channels, a sharded sampler sizes per-slot state in each
// of its G shards (so g·k is capped as well as each factor), and the
// fullwindow baseline allocates its Θ(n) ring up front
// (window.SeqBuffer is documented test/bench-grade). The
// CLIs resolve specs through internal/substrate directly and are not
// capped — a local operator's own machine is their own business.
const (
	// MaxK bounds the sample/sketch size of a registered sampler.
	MaxK = 1 << 16
	// MaxG bounds the shard count of a registered sampler.
	MaxG = 256
	// MaxShardSlots bounds g·k for a sharded sampler: about 120 MB of
	// eager state for the costliest (ts sharded-wor), where g = MaxG with
	// k = MaxK would take gigabytes.
	MaxShardSlots = 1 << 18
	// MaxFullWindowN bounds the eagerly allocated fullwindow baseline ring.
	MaxFullWindowN = 1 << 22
)

func validateServable(spec Spec) error {
	if spec.K > MaxK {
		return fmt.Errorf("serve: k %d exceeds the serving cap %d", spec.K, MaxK)
	}
	if spec.G > MaxG {
		return fmt.Errorf("serve: g %d exceeds the serving cap %d", spec.G, MaxG)
	}
	if strings.HasPrefix(spec.Sampler, "sharded-") && spec.G*spec.K > MaxShardSlots {
		return fmt.Errorf("serve: g·k = %d exceeds the serving cap %d", spec.G*spec.K, MaxShardSlots)
	}
	if spec.Sampler == "fullwindow" && spec.Mode == "seq" && spec.N > MaxFullWindowN {
		return fmt.Errorf("serve: fullwindow allocates its Θ(n) ring eagerly; n capped at %d for serving", MaxFullWindowN)
	}
	return nil
}

// Build constructs the spec's substrate, seeds it, and wires up its
// capability views. Served values are strings (the HTTP surface is
// line-shaped, like cmd/swsample); the weight function comes from
// Spec.Weight.
func Build(spec Spec) (*Instance, error) {
	if err := validateServable(spec); err != nil {
		return nil, err
	}
	built, seed, err := substrate.New(spec)
	if err != nil {
		return nil, err
	}
	resolved := spec
	resolved.Seed = seed
	return newInstance(resolved, built), nil
}

// ingester is the capability every registrable substrate has: batched
// ingest plus the unified metadata surface. It is stream.Sampler minus
// Sample — the subset-sum estimators ingest and report like samplers but
// answer estimates, not samples.
type ingester interface {
	Observe(value string, ts int64)
	ObserveBatch(batch []stream.Element[string])
	K() int
	Count() uint64
	stream.MemoryReporter
}
