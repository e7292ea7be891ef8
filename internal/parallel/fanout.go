// fanout.go: the bounded worker pool behind the parallel read path.
//
// Every sharded query decomposes into per-shard sub-queries that are
// independent until the final cross-shard step (PR 4's observation for the
// WOR merge; the same holds for the slot-vector fetches of the WR samplers
// and the per-shard weight oracles). forShards runs those sub-queries on a
// bounded pool instead of a sequential loop.
//
// Determinism survives because the fan-out is ORDER-BLIND by construction:
//
//   - each sub-query touches only shard-local state — shard i's sampler,
//     shard i's rng (every shard gets its own child generator via
//     rng.Split at construction), shard i's result slot — so the execution
//     order cannot change any draw;
//   - every draw from the dispatcher-side rng (slot picks, Floyd subsets,
//     PickK) stays on the calling goroutine, before or after the fan-out,
//     in a fixed sequential order;
//   - the cross-shard combine (top-k merge, weight totals, shortfall
//     redistribution) runs on the calling goroutine in shard order, so
//     float summation order is fixed, and the k-way merge reads only the
//     per-shard result slots, whose contents no schedule can change.
//
// Consequently a query fanned across G workers returns byte-identical
// results to the same query run with fan-out disabled — the property
// TestFanoutDeterminism pins for every sharded substrate.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// queryFanout is the bounded worker count for per-shard sub-queries.
// 0 means "unset": resolve to min(GOMAXPROCS, defaultMaxFanout) lazily, so
// tests and operators can override before or after the first query.
var queryFanout atomic.Int32

// defaultMaxFanout caps the per-query worker count when the operator has
// not chosen one: sub-queries are short (Θ(k log n) per shard), so past a
// handful of workers the spawn overhead dominates.
const defaultMaxFanout = 8

// SetQueryFanout sets the maximum number of worker goroutines a single
// sharded query fans its per-shard sub-queries across. n <= 1 disables
// parallelism (sub-queries run inline, in shard order); n > 1 bounds the
// pool at n. 0 restores the default, min(GOMAXPROCS, 8). Safe to call
// concurrently with queries; each query reads the setting once.
func SetQueryFanout(n int) {
	if n < 0 {
		n = 1
	}
	queryFanout.Store(int32(n))
}

// QueryFanout reports the resolved per-query worker bound.
func QueryFanout() int {
	n := int(queryFanout.Load())
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > defaultMaxFanout {
			n = defaultMaxFanout
		}
	}
	return n
}

// forShards runs f(shard) for every shard in [0, g), fanning across at
// most QueryFanout() workers. f must touch only shard-local state (its
// shard's sampler, rng and result slot); the combine step belongs on the
// caller, after forShards returns. With fan-out disabled — or when g is
// too small to be worth a spawn — the loop runs inline in shard order,
// which the determinism argument above makes indistinguishable from the
// parallel schedule.
func forShards(g int, f func(shard int)) {
	workers := QueryFanout()
	if workers > g {
		workers = g
	}
	if workers <= 1 || g < 2 {
		for i := 0; i < g; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= g {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
