package parallel

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// sortMergeOracle is the k-way merge of per-shard samples that the one
// cross-shard selection replaced, kept as the oracle: recover every
// candidate's global index, sort the concatenation by decreasing log-key,
// ties by smaller global index, and keep the first k. Its inputs are the
// shards' own samples (each shard's top-k, shard-local indices), which is
// all a merge needs: every item of the global top-k is in its shard's.
func sortMergeOracle(perShard [][]weighted.Item[uint64], k int) []weighted.Item[uint64] {
	var all []weighted.Item[uint64]
	for shard, items := range perShard {
		for _, it := range items {
			it.Elem = recoverIndex(it.Elem, shard, len(perShard))
			all = append(all, it)
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].LogKey != all[b].LogKey {
			return all[a].LogKey > all[b].LogKey
		}
		return all[a].Elem.Index < all[b].Elem.Index
	})
	return all[:min(k, len(all))]
}

// sameShardItems compares two samples bit for bit.
func sameShardItems(t *testing.T, label string, got, want []weighted.Item[uint64]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Elem != want[i].Elem || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) ||
			math.Float64bits(got[i].LogKey) != math.Float64bits(want[i].LogKey) {
			t.Fatalf("%s: item %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// sameSample checks that a Sample/SampleAt answer is the items' elements.
func sameSample(t *testing.T, label string, es []stream.Element[uint64], ok bool, items []weighted.Item[uint64]) {
	t.Helper()
	if ok != (len(items) > 0) || len(es) != len(items) {
		t.Fatalf("%s: sample has %d elements (ok %v), want %d", label, len(es), ok, len(items))
	}
	for i := range es {
		if es[i] != items[i].Elem {
			t.Fatalf("%s: element %d = %+v, want %+v", label, i, es[i], items[i].Elem)
		}
	}
}

// TestMergeTopKMatchesSortOracle is the differential test of the sharded
// WOR query, now one selection over every shard's retained nodes: for G
// in {1, 2, 3, 8} and every k from 1 to 70, sharded sequence and timestamp
// samplers filled with anything from fewer arrivals than shards (empty
// shards, k above the total) to several k per shard must answer Items,
// ItemsAt, Sample and SampleAt with exactly the oracle's merge of the
// shards' own samples, global indices recovered once, and a repeated query
// (the selection buffer reused) must answer the same. Exact key ties
// across shards cannot be drawn here; the weighted package pins them on
// the selection directly (TestSelectionAcrossShardsMatchesSortOracle,
// TestSelectionTieAcrossShards).
func TestMergeTopKMatchesSortOracle(t *testing.T) {
	rng := xrand.New(17)
	for _, g := range []int{1, 2, 3, 8} {
		for k := 1; k <= 70; k++ {
			fill := int(rng.Uint64n(uint64(4 * k * g)))
			if k%5 == 0 {
				fill = int(rng.Uint64n(uint64(g + 1)))
			}
			label := fmt.Sprintf("g=%d k=%d fill=%d", g, k, fill)
			seed := rng.Uint64()

			// Sequence window: n = 2·k·g keeps some arrivals expired.
			seq := NewShardedWeightedSeqWOR[uint64](xrand.New(seed), uint64(2*k*g), g, k, 0.05, shardWeight)
			for i := 0; i < fill; i++ {
				seq.Observe(uint64(i), 0)
			}
			seq.Barrier()
			perShard := make([][]weighted.Item[uint64], g)
			for shard, sh := range seq.shards {
				perShard[shard], _ = sh.Items()
			}
			want := sortMergeOracle(perShard, k)
			for rep := 0; rep < 2; rep++ {
				got, ok := seq.Items()
				if ok != (len(want) > 0) {
					t.Fatalf("seq %s: ok %v with %d oracle items", label, ok, len(want))
				}
				sameShardItems(t, "seq "+label, got, want)
				es, ok := seq.Sample()
				sameSample(t, "seq "+label, es, ok, want)
			}
			seq.Close()

			// Timestamp window: ten arrivals per tick over a horizon of k
			// ticks, queried half a horizon after the last arrival, so the
			// older arrivals have expired at the query.
			t0 := int64(k)
			ts := NewShardedWeightedTSWOR[uint64](xrand.New(seed), t0, g, k, 0.05, shardWeight)
			for i := 0; i < fill; i++ {
				ts.Observe(uint64(i), int64(i/10))
			}
			ts.Barrier()
			now := int64(fill/10) + t0/2
			got, ok := ts.ItemsAt(now)
			for shard, sh := range ts.shards {
				perShard[shard], _ = sh.ItemsAt(now)
			}
			want = sortMergeOracle(perShard, k)
			if ok != (len(want) > 0) {
				t.Fatalf("ts %s: ok %v with %d oracle items", label, ok, len(want))
			}
			sameShardItems(t, "ts "+label, got, want)
			es, ok := ts.SampleAt(now)
			sameSample(t, "ts "+label, es, ok, want)
			again, _ := ts.Items()
			sameShardItems(t, "ts repeat "+label, again, want)
			ts.Close()
		}
	}
}

// TestMergeTopKEdgeCases pins the shapes by hand: every shard empty (no
// arrival yet) answers ok=false on every query, and a single arrival
// across three shards is a one-item sample at global index 0.
func TestMergeTopKEdgeCases(t *testing.T) {
	seq := NewShardedWeightedSeqWOR[uint64](xrand.New(3), 12, 3, 4, 0.05, shardWeight)
	defer seq.Close()
	ts := NewShardedWeightedTSWOR[uint64](xrand.New(3), 5, 3, 4, 0.05, shardWeight)
	defer ts.Close()
	seq.Barrier()
	ts.Barrier()
	if items, ok := seq.Items(); ok || items != nil {
		t.Fatalf("empty seq: Items = %v, %v", items, ok)
	}
	if es, ok := seq.Sample(); ok || es != nil {
		t.Fatalf("empty seq: Sample = %v, %v", es, ok)
	}
	if items, ok := ts.ItemsAt(9); ok || items != nil {
		t.Fatalf("empty ts: ItemsAt = %v, %v", items, ok)
	}
	if es, ok := ts.SampleAt(9); ok || es != nil {
		t.Fatalf("empty ts: SampleAt = %v, %v", es, ok)
	}

	seq.Observe(42, 0)
	ts.Observe(42, 9)
	seq.Barrier()
	ts.Barrier()
	if es, ok := seq.Sample(); !ok || len(es) != 1 || es[0] != (stream.Element[uint64]{Value: 42}) {
		t.Fatalf("seq single arrival: sample %+v, ok %v", es, ok)
	}
	if es, ok := ts.SampleAt(9); !ok || len(es) != 1 || es[0] != (stream.Element[uint64]{Value: 42, TS: 9}) {
		t.Fatalf("ts single arrival: sample %+v, ok %v", es, ok)
	}
	// The window empties at 9 + 5: no shard offers anything.
	if es, ok := ts.SampleAt(14); ok || es != nil {
		t.Fatalf("expired ts: SampleAt = %v, %v", es, ok)
	}
}

// TestShardedWORSampleAllocs bounds the sharded WOR queries at one
// allocation, the caller's fresh sample: every shard offers into the
// dispatch's reused selection, so neither per-shard lists nor a merge
// buffer can come back unnoticed (they cost at least G allocations).
func TestShardedWORSampleAllocs(t *testing.T) {
	const g, k = 8, 64
	seq := NewShardedWeightedSeqWOR[uint64](xrand.New(5), 1<<12, g, k, 0.05, shardWeight)
	defer seq.Close()
	ts := NewShardedWeightedTSWOR[uint64](xrand.New(5), 3600, g, k, 0.05, shardWeight)
	defer ts.Close()
	for i := 0; i < 20_000; i++ {
		seq.Observe(uint64(i), 0)
		ts.Observe(uint64(i), int64(i/100))
	}
	seq.Barrier()
	ts.Barrier()
	now := int64(20_000 / 100)
	for _, q := range []struct {
		name string
		run  func() bool
	}{
		{"ShardedWeightedSeqWOR.Sample", func() bool { _, ok := seq.Sample(); return ok }},
		{"ShardedWeightedSeqWOR.Items", func() bool { _, ok := seq.Items(); return ok }},
		{"ShardedWeightedTSWOR.SampleAt", func() bool { _, ok := ts.SampleAt(now); return ok }},
		{"ShardedWeightedTSWOR.ItemsAt", func() bool { _, ok := ts.ItemsAt(now); return ok }},
	} {
		if !q.run() {
			t.Fatalf("%s: empty sample", q.name)
		}
		if a := testing.AllocsPerRun(20, func() { q.run() }); a > 1 {
			t.Errorf("%s: %v allocations per query, want 1", q.name, a)
		}
	}
}
