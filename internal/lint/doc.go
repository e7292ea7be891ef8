// Package lint implements swlint, the repository's go/analysis invariant
// checker. Every analyzer here turns a correctness contract that was
// previously enforced by one regression test, a comment, or a debugging
// session into a whole-repo static guarantee checked by `make lint`
// (go vet -vettool over cmd/swlint):
//
//   - norandquery: query paths draw no randomness. The sharded-query and
//     byte-determinism arguments of the serving layer (DESIGN.md §7) lean
//     on queries being pure reads of sampler state; before this analyzer
//     the invariant was pinned only by internal/weighted/norand_test.go.
//     The analyzer walks the static call graph from every query entry
//     point (Sample, SampleAt, ValuesAt, SizeAt, WeightAt, TotalWeightAt,
//     Words, EstimateAt, SumAt) in internal/weighted, internal/parallel,
//     internal/ehist, and the public root package, and reports any
//     reachable call into an xrand.Rand method. The sharded dispatchers'
//     deliberate query-time draws (slot picks over shard weights, drawn
//     sequentially after all shard prefetches) carry justified
//     //swlint:allow annotations.
//
//   - detrand: exact integer randomness lives solely in seeded
//     internal/xrand — a wall-clock-seeded or biased draw silently breaks
//     the paper's uniformity theorems (Theorems 2.1/2.2, Lemmas 3.6/3.7).
//     The analyzer forbids importing math/rand, math/rand/v2, or
//     crypto/rand and calling time.Now/time.Since/time.Until anywhere in
//     non-test code. The timing harnesses (cmd/swbench, cmd/swload) and
//     the default-seed entropy bootstrap carry annotations.
//
//   - lockorder: internal/serve's pipelined hot path depends on a
//     documented lock hierarchy (serve.Instance: mu before qmu, oracleMu
//     and any stats mutex strictly leaf; the registry Server.mu outermost
//     — see internal/serve/instance.go). The analyzer checks acquisition
//     order against that declared hierarchy (including one level of
//     intra-package transitive acquisition through static calls), flags
//     Mutex/RWMutex value copies, locks that are never released, and
//     manual Lock/Unlock pairs whose unlock is duplicated across return
//     paths — the shape that invites a missed-unlock bug on the next
//     edit; convert to defer or annotate why not (the applier loop must
//     release qmu before blocking on mu).
//
//   - errsurface: the public surface speaks errors (ErrBadWeight,
//     ErrClosed, ErrOverloaded, ...) and HTTP status codes, never bare
//     panics (the PR 5 serving-layer rule). The analyzer reports any
//     panic reachable from an exported function of the root package or
//     from internal/serve's exported methods and handlers, unless the
//     panic is a named internal panic — a constant message with the
//     repository's "pkg: ..." prefix convention, the documented
//     invariant-violation panics.
//
//   - wordsacct: the paper's optimal-memory claim is encoded in
//     hand-written Words()/MaxWords() methods (DESIGN.md §6), and a field
//     added without deciding its accounting silently falsifies them. For
//     every type with a Words()/words() footprint method, each retained
//     reference-typed field (slices, maps, embedded oracles, pointers to
//     counted structures) must be referenced somewhere in the Words
//     closure — the footprint method plus the same-type helpers it calls —
//     or carry //swlint:allow wordsacct naming the word-model exclusion
//     (recycled transport scratch, a duplicate typed view of already
//     counted shards). Channels, func values, xrand.Rand, and the sync
//     primitives are outside the model by definition.
//
//   - noalias: query results are owned by the caller. The exported entry
//     points (Sample, SampleAt, Values, ValuesAt, Items, ItemsAt) must
//     never return a slice or map aliasing retained sampler state; a
//     conservative per-function taint flow (receiver fields taint;
//     make/composite literals/append-to-fresh cleanse) plus the
//     aliasesRetained object fact resolves sharded wrappers' chains
//     cross-package. Findings on slice returns carry a SuggestedFix
//     (wrap in append([]T(nil), ...)) applied by `make lint-fix`. The
//     deliberately-live accessors (SampleSlots, SlotsAt, the window
//     Contents materializers) are not entry points.
//
//   - substratecov: a substrate registered in internal/substrate.New must
//     be wired everywhere operators meet it. The substrate pass parses the
//     mode/sampler switch (the switch IS the registry) and exports the
//     table as a package fact; the cmd/swsample pass joins it against the
//     root conformance battery (constructor name), the serve capability
//     tests, the swsample flag docs, and README's sampler table, read from
//     the module root, reporting each gap at the substrate import.
//
//   - nilness, unusedwrite: conservative local AST reimplementations of
//     the x/tools passes of the same names (upstream requires go/ssa,
//     which the vendored tool-only x/tools subset omits — see the
//     dependency policy in README). nilness flags uses of a variable
//     inside its own `== nil` branch; unusedwrite flags field writes
//     through value receivers or range-value copies that are never read
//     afterwards.
//
// # Suppression
//
// A finding that is deliberate is annotated in place:
//
//	expr // swlint directive on the offending line:
//	u := s.rng.Uint64n(total) //swlint:allow norandquery <reason>
//
//	//swlint:allow norandquery <reason>   (standalone: covers the NEXT line)
//	u := s.rng.Uint64n(total)
//
// The directive is strictly line-scoped: a standalone directive covers
// exactly the following line, a trailing directive exactly its own line.
// One directive may name several analyzers, comma-separated with no
// spaces (//swlint:allow detrand,norandquery <reason>), for a line that
// trips more than one check. A directive without a reason is itself
// reported (by every analyzer it names), and does not suppress anything.
// A directive naming an unknown analyzer is reported by norandquery (the
// designated directive owner, so the report appears exactly once). The
// reason may not contain "//".
//
// # Analysis boundary
//
// Reachability is computed over STATIC calls (functions and concrete
// methods). Calls through interfaces and function values are not
// followed; those paths stay covered by the dynamic batteries
// (conformance_test.go, norand_test.go, the -race gates). Facts propagate
// across packages via the go vet driver, so e.g. a draw introduced deep
// in internal/weighted is reported at the entry points of
// internal/parallel that reach it. Test files are ignored.
//
// # Extending
//
// New analyzers register in Analyzers() (cmd/swlint picks them up
// automatically) and follow the same shape: collectAllows first, report
// through the returned allows so //swlint:allow works, and add a fixture
// module under testdata/<name> with // want annotations (see lint_test.go
// for the harness contract). See DESIGN.md §8.
package lint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the swlint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoRandQuery, DetRand, LockOrder, ErrSurface,
		WordsAcct, NoAlias, SubstrateCov, Nilness, UnusedWrite,
	}
}
