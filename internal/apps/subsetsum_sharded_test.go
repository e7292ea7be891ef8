package apps

import (
	"math"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// TestShardedSubsetSumUnbiased: the sharded estimator's HT estimate —
// computed over the EXACT merged top-(k+1) across shards — must converge
// in the mean to the exact windowed subset sum, at a query time past the
// last arrival (query-time expiry through the sharded read path).
func TestShardedSubsetSumUnbiased(t *testing.T) {
	const (
		t0     = 64
		g      = 4
		k      = 16
		m      = 300
		trials = 1200
	)
	buf := window.NewTSBuffer[uint64](t0)
	for i := 0; i < m; i++ {
		buf.Observe(stream.Element[uint64]{Value: uint64(i), Index: uint64(i), TS: int64(i / 3)})
	}
	queryAt := int64((m-1)/3) + t0/4
	buf.AdvanceTo(queryAt)
	preds := map[string]func(uint64) bool{
		"mod3":  func(v uint64) bool { return v%3 == 0 },
		"total": func(uint64) bool { return true },
	}
	exact := map[string]float64{}
	for name, pred := range preds {
		s := 0.0
		for _, e := range buf.Contents() {
			if pred(e.Value) {
				s += ssWeight(e.Value)
			}
		}
		exact[name] = s
	}

	sums := map[string]float64{}
	for tr := 0; tr < trials; tr++ {
		est := NewShardedSubsetSumTS[uint64](xrand.New(uint64(tr)+1), t0, g, k, 0.05, ssWeight)
		for i := 0; i < m; i++ {
			est.Observe(uint64(i), int64(i/3))
		}
		est.Barrier()
		for name, pred := range preds {
			got, ok := est.EstimateAt(queryAt, pred)
			if !ok {
				t.Fatalf("trial %d: no estimate", tr)
			}
			sums[name] += got
		}
		est.Close()
	}
	for name := range preds {
		mean := sums[name] / trials
		if rel := math.Abs(mean/exact[name] - 1); rel > 0.03 {
			t.Errorf("%s: mean estimate %.2f vs exact %.2f (rel err %.4f > 0.03)", name, mean, exact[name], rel)
		}
	}
}

// TestShardedSubsetSumMatchesScaleOracles: WeightAt is within (1±eps) of
// the ground-truth active weight and SizeAt within (1±eps) of n(t),
// including past the last arrival — the per-shard oracles the sharded
// estimator layers its scale factors on.
func TestShardedSubsetSumScaleOracles(t *testing.T) {
	const (
		t0  = 128
		g   = 4
		k   = 8
		m   = 5000
		eps = 0.05
	)
	est := NewShardedSubsetSumTS[uint64](xrand.New(5), t0, g, k, eps, ssWeight)
	defer est.Close()
	truth := window.NewTSBuffer[uint64](t0)
	rng := xrand.New(6)
	ts := int64(0)
	for i := 0; i < m; i++ {
		if rng.Uint64n(3) == 0 {
			ts += int64(rng.Uint64n(5))
		}
		est.Observe(uint64(i), ts)
		truth.Observe(stream.Element[uint64]{Value: uint64(i), Index: uint64(i), TS: ts})
		if i%113 != 0 {
			continue
		}
		probe := ts + int64(rng.Uint64n(t0/2))
		probeTruth := window.NewTSBuffer[uint64](t0)
		for _, e := range truth.Contents() {
			probeTruth.Observe(e)
		}
		probeTruth.AdvanceTo(probe)
		wantW := 0.0
		for _, e := range probeTruth.Contents() {
			wantW += ssWeight(e.Value)
		}
		wantN := float64(probeTruth.Len())
		if wantW == 0 {
			continue
		}
		if got := est.TotalWeightAt(probe); math.Abs(got-wantW)/wantW > eps+1e-9 {
			t.Fatalf("step %d: WeightAt=%g vs W(t)=%g", i, got, wantW)
		}
		if got := float64(est.SizeAt(probe)); math.Abs(got-wantN)/wantN > eps+1e-9 {
			t.Fatalf("step %d: SizeAt=%.0f vs n(t)=%.0f", i, got, wantN)
		}
	}
}

// TestShardedSubsetSumExhaustive: with at most k active elements the
// merged sketch holds the whole window and the estimate is exact.
func TestShardedSubsetSumExhaustive(t *testing.T) {
	const (
		t0 = 10
		g  = 3
		k  = 40
	)
	est := NewShardedSubsetSumTS[uint64](xrand.New(3), t0, g, k, 0.05, ssWeight)
	defer est.Close()
	est.Barrier()
	if _, ok := est.Estimate(func(uint64) bool { return true }); ok {
		t.Fatal("estimate from empty window")
	}
	exact := 0.0
	for i := 0; i < 30; i++ {
		est.Observe(uint64(i), int64(25+i/8)) // all within the horizon
		exact += ssWeight(uint64(i))
	}
	est.Barrier()
	got, ok := est.Estimate(func(uint64) bool { return true })
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(got-exact) > 1e-9*exact {
		t.Fatalf("exhaustive estimate %.6f, want exact %.6f", got, exact)
	}
}
