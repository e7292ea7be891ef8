package parallel

import (
	"math"
	"sort"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
	"slidingsample/internal/xrand"
)

// sortMergeOracle is the merge mergeTopK replaced, kept as the oracle:
// recover every candidate's global index, sort the concatenation by
// decreasing log-key, ties by smaller global index, and keep the first k.
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

// shardLists builds g per-shard samples as the weighted skybands return
// them: decreasing log-key, exact ties by increasing shard-local index.
// Local indices start at 1, so a global index recovered zero times or
// twice differs from the one recovered once. Values are unique and
// encode (shard, local index). Some shards are empty; with ties set, keys
// come from three values, so ties cross shards and the k-th place.
func shardLists(rng *xrand.Rand, g, maxLen int, ties bool) [][]weighted.Item[uint64] {
	perShard := make([][]weighted.Item[uint64], g)
	for shard := range perShard {
		n := int(rng.Uint64n(uint64(maxLen) + 1))
		if rng.Uint64n(4) == 0 {
			n = 0
		}
		items := make([]weighted.Item[uint64], n)
		for i := range items {
			local := 1 + uint64(i)
			lk := -rng.Float64() * 10
			if ties {
				lk = -float64(rng.Uint64n(3))
			}
			items[i] = weighted.Item[uint64]{
				Elem:   stream.Element[uint64]{Value: uint64(shard)<<32 | local, Index: local},
				Weight: 1 + float64(rng.Uint64n(9)),
				LogKey: lk,
			}
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].LogKey > items[b].LogKey })
		perShard[shard] = items
	}
	return perShard
}

// TestMergeTopKMatchesSortOracle is the differential test of the k-way
// merge: over random shard counts, list lengths and k — empty shards,
// fewer than k candidates in total, and exact ties across shards included
// — mergeTopK must return exactly the oracle's items in the oracle's
// order, each emitted item's index recovered exactly once, and leave the
// per-shard inputs untouched.
func TestMergeTopKMatchesSortOracle(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 500; trial++ {
		g := 1 + int(rng.Uint64n(12))
		k := 1 + int(rng.Uint64n(70))
		perShard := shardLists(rng, g, int(rng.Uint64n(80)), trial%3 == 2)
		before := make([][]weighted.Item[uint64], g)
		for shard, items := range perShard {
			before[shard] = append([]weighted.Item[uint64](nil), items...)
		}
		got := mergeTopK(perShard, k)
		want := sortMergeOracle(before, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (g=%d k=%d): %d items, want %d", trial, g, k, len(got), len(want))
		}
		for i := range got {
			if got[i].Elem != want[i].Elem || got[i].Weight != want[i].Weight ||
				math.Float64bits(got[i].LogKey) != math.Float64bits(want[i].LogKey) {
				t.Fatalf("trial %d (g=%d k=%d): item %d = %+v, want %+v", trial, g, k, i, got[i], want[i])
			}
			shard, local := got[i].Elem.Value>>32, got[i].Elem.Value&(1<<32-1)
			if got[i].Elem.Index != local*uint64(g)+shard {
				t.Fatalf("trial %d: item %d index %d, want %d (shard %d, local %d recovered once)",
					trial, i, got[i].Elem.Index, local*uint64(g)+shard, shard, local)
			}
		}
		for shard := range perShard {
			for i := range perShard[shard] {
				if perShard[shard][i] != before[shard][i] {
					t.Fatalf("trial %d: input shard %d item %d modified", trial, shard, i)
				}
			}
		}
	}
}

// TestMergeTopKEdgeCases pins the shapes by hand: all shards empty, a
// single candidate, and a cross-shard tie resolved by global index even
// when the later shard's local index is smaller.
func TestMergeTopKEdgeCases(t *testing.T) {
	item := func(local uint64, lk float64) weighted.Item[uint64] {
		return weighted.Item[uint64]{Elem: stream.Element[uint64]{Value: local, Index: local}, Weight: 1, LogKey: lk}
	}
	if got := mergeTopK(make([][]weighted.Item[uint64], 4), 3); got != nil {
		t.Fatalf("all shards empty: got %v, want nil", got)
	}
	got := mergeTopK([][]weighted.Item[uint64]{nil, {item(2, -1)}, nil}, 5)
	if len(got) != 1 || got[0].Elem.Index != 2*3+1 {
		t.Fatalf("single candidate: got %+v", got)
	}
	// g = 3: shard 0 local 2 is global 6; shard 2 local 1 is global 5.
	got = mergeTopK([][]weighted.Item[uint64]{{item(2, -1), item(3, -4)}, {item(0, -2)}, {item(1, -1)}}, 3)
	wantIdx := []uint64{5, 6, 1}
	if len(got) != len(wantIdx) {
		t.Fatalf("cross-shard tie: %d items, want %d", len(got), len(wantIdx))
	}
	for i, it := range got {
		if it.Elem.Index != wantIdx[i] {
			t.Fatalf("cross-shard tie: position %d has global index %d, want %d", i, it.Elem.Index, wantIdx[i])
		}
	}
}
