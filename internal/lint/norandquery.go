package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// NoRandQuery reports query-path entry points that can reach a
// randomness draw. See the package doc for the invariant's provenance
// (PR 6 byte-determinism; internal/weighted/norand_test.go).
var NoRandQuery = &analysis.Analyzer{
	Name: "norandquery",
	Doc: "report query-path entry points (Sample, SampleAt, ValuesAt, SizeAt, WeightAt, " +
		"TotalWeightAt, Words, EstimateAt, SumAt) that can statically reach an xrand.Rand " +
		"draw; queries must be pure reads of sampler state",
	Run:       runNoRandQuery,
	FactTypes: []analysis.Fact{(*drawsRand)(nil)},
}

// drawsRand marks a function that can statically reach an xrand.Rand
// method call; Via records one witness chain.
type drawsRand struct {
	Via string
}

func (*drawsRand) AFact()           {}
func (f *drawsRand) String() string { return "drawsRand(" + f.Via + ")" }

// queryEntryPoints are the method/function names that constitute the
// read-only query surface across the sampler packages.
var queryEntryPoints = map[string]bool{
	"Sample":        true,
	"SampleAt":      true,
	"ValuesAt":      true,
	"SizeAt":        true,
	"WeightAt":      true,
	"TotalWeightAt": true,
	"Words":         true,
	"EstimateAt":    true,
	"SumAt":         true,
}

// queryScopedPkg reports whether entry points in this package are held to
// the rng-free contract: the public root package and the three sampler
// packages whose query determinism the sharded-query proofs rely on. Other
// packages still compute and export drawsRand facts (so taint introduced
// there surfaces at a scoped entry point), they just have no entry points
// of their own.
func queryScopedPkg(path string) bool {
	return pkgPathHasSuffix(path, "slidingsample") ||
		pkgPathHasSuffix(path, "internal/weighted") ||
		pkgPathHasSuffix(path, "internal/parallel") ||
		pkgPathHasSuffix(path, "internal/ehist")
}

// isXrandPkg identifies the seeded rng package; every method on its Rand
// type (draws, Seed, Split) taints the caller.
func isXrandPkg(path string) bool {
	return pkgPathHasSuffix(path, "internal/xrand")
}

func runNoRandQuery(pass *analysis.Pass) (any, error) {
	if !interestingPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	al := collectAllows(pass, "norandquery")
	nodes := buildGraph(pass)

	seed := func(_ *ast.CallExpr, callee *types.Func) (string, bool) {
		if callee == nil || callee.Pkg() == nil || !isXrandPkg(callee.Pkg().Path()) {
			return "", false
		}
		sig, _ := callee.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return "", false // constructors (New, NewZipf) allocate, never draw
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Name() != "Rand" {
			return "", false
		}
		return "(*xrand.Rand)." + callee.Name(), true
	}
	imported := func(callee *types.Func) (string, bool) {
		var f drawsRand
		if pass.ImportObjectFact(callee, &f) {
			return f.Via, true
		}
		return "", false
	}
	propagate(pass, nodes, seed, imported)

	for _, n := range nodes {
		if n.via != "" {
			fact := &drawsRand{Via: n.via}
			pass.ExportObjectFact(n.fn, fact)
		}
	}
	if !queryScopedPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, n := range nodes {
		if n.via == "" || !n.fn.Exported() || !queryEntryPoints[n.fn.Name()] {
			continue
		}
		al.report(n.decl.Name.Pos(),
			"query path %s draws randomness: %s (queries must be rng-free reads; fix, or justify with //swlint:allow norandquery <reason>)",
			funcDisplay(pass, n.fn), n.via)
	}
	return nil, nil
}
