package bench

// E19: sharded weighted timestamp windows (PR-4 tentpole). The weighted
// substrate of E17/E18 goes G-way parallel: round-robin dealing puts each
// shard's active window exactly on its slice, per-shard Efraimidis–
// Spirakis log-keys are globally comparable so the merged top-k IS the
// window's weighted WOR sample (exact — no cross-shard estimate on the
// sample path), and the dispatcher keeps one exponential histogram over
// WEIGHTS per shard as the (1±eps) scale/pick oracle. The experiment
// regenerates three engineering claims: (a) the sharded subset-sum
// estimate — HT over the exact merged top-(k+1) — stays unbiased with
// error shrinking in k at a query past the last arrival, matching the
// unsharded E18 law; (b) each per-shard weight oracle, their total, and
// the size oracle land within (1±eps) of ground truth; (c) the whole
// G-shard stack stays far below the Θ(n) full-window cost.

import (
	"math"

	"slidingsample/internal/apps"
	"slidingsample/internal/parallel"
	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Sharded weighted timestamp windows: exact cross-shard WOR + weight oracles (parallel)",
		Claim: "per-shard ES skybands merge into the exact weighted WOR law; ehist-over-weights gives (1±eps) per-shard totals",
		Run:   runE19,
	})
}

func runE19(cfg Config) {
	const (
		t0  = 2048
		m   = 20000
		g   = 4
		eps = 0.05
	)
	trials := 200
	if cfg.Quick {
		trials = 60
	}
	weight := func(v uint64) float64 { return float64(v%97) + 1 }
	pred := func(v uint64) bool { return v%3 == 0 }

	// The E18 stream shape: bursty arrivals, query t0/4 ticks past the
	// last arrival (a quarter-window expires by clock advancement alone).
	arrivals := burstyTimestamps(cfg.Seed+19, m)
	queryAt := arrivals[m-1] + t0/4

	vals := xrand.New(cfg.Seed + 17)
	values := make([]uint64, m)
	buf := window.NewTSBuffer[uint64](t0)
	for i := range values {
		values[i] = vals.Uint64n(1 << 20)
		buf.Observe(stream.Element[uint64]{Value: values[i], Index: uint64(i), TS: arrivals[i]})
	}
	buf.AdvanceTo(queryAt)
	exact, wTrue, nTrue := 0.0, 0.0, float64(buf.Len())
	shardTrue := make([]float64, g)
	for _, e := range buf.Contents() {
		w := weight(e.Value)
		wTrue += w
		shardTrue[e.Index%g] += w
		if pred(e.Value) {
			exact += w
		}
	}

	// (a) Sharded subset-sum accuracy vs k — unbiased, rmse ~ 1/sqrt(k),
	// same law as the unsharded E18 battery because the merged top-(k+1)
	// is exact.
	t := newTable(cfg.Out, "k", "mean rel err", "rmse rel", "weight rel err", "mean words", "peak words", "fullwindow words")
	r := xrand.New(cfg.Seed)
	for _, k := range []int{8, 32, 128} {
		sumErr, sumSq, sumWords, wErr, peak := 0.0, 0.0, 0.0, 0.0, 0
		for tr := 0; tr < trials; tr++ {
			est := apps.NewShardedSubsetSumTS[uint64](r.Split(), t0, g, k, eps, weight)
			for i, v := range values {
				est.Observe(v, arrivals[i])
			}
			est.Barrier()
			got, ok := est.EstimateAt(queryAt, pred)
			if !ok {
				est.Close()
				continue
			}
			rel := got/exact - 1
			sumErr += rel
			sumSq += rel * rel
			sumWords += float64(est.Words())
			wErr += math.Abs(est.TotalWeightAt(queryAt)/wTrue - 1)
			if est.MaxWords() > peak {
				peak = est.MaxWords()
			}
			est.Close()
		}
		t.row(k, sumErr/float64(trials), math.Sqrt(sumSq/float64(trials)),
			wErr/float64(trials), sumWords/float64(trials), peak, 1+3*int(nTrue))
	}
	t.flush()

	// (b) The per-shard weight oracles against each shard slice's ground
	// truth (the acceptance claim: every shard within (1±eps)).
	s := parallel.NewShardedWeightedTSWOR[uint64](xrand.New(cfg.Seed+21), t0, g, 8, eps, weight)
	for i, v := range values {
		s.Observe(v, arrivals[i])
	}
	s.Barrier()
	maxShardErr := 0.0
	for shard, got := range s.ShardWeightsAt(queryAt) {
		if shardTrue[shard] == 0 {
			continue
		}
		if rel := math.Abs(got/shardTrue[shard] - 1); rel > maxShardErr {
			maxShardErr = rel
		}
	}
	totErr := math.Abs(s.TotalWeightAt(queryAt)/wTrue - 1)
	sizeErr := math.Abs(float64(s.SizeAt(queryAt))/nTrue - 1)
	s.Close()

	note(cfg, "sharded (g=%d) windowed subset sum over the last t0=%d ticks, queried t0/4 past the last", g, t0)
	note(cfg, "arrival (n(t)=%d); mean rel err ~ 0 is unbiasedness of the HT estimate over the EXACT", int(nTrue))
	note(cfg, "merged top-(k+1); rmse shrinks ~1/sqrt(k) as in the unsharded E18")
	note(cfg, "weight oracles at the query: max per-shard rel err %.4f, total %.4f, size %.4f (eps=%.2f)", maxShardErr, totErr, sizeErr, eps)
}
