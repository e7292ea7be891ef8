package weighted

import (
	"math"
	"sort"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// sortTopItems is the sort-based query core topItems replaced, kept as
// the oracle: order every retained node by decreasing log-key and keep the
// first k. The sort is stable over nodes in arrival order, so exact ties
// keep the earlier arrival first — the documented rule.
func sortTopItems[T any](nodes []node[T], k int) []Item[T] {
	idx := make([]int, len(nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return nodes[idx[a]].lk > nodes[idx[b]].lk })
	m := min(k, len(idx))
	out := make([]Item[T], m)
	for i := 0; i < m; i++ {
		nd := nodes[idx[i]]
		out[i] = Item[T]{Elem: nd.elem, Weight: nd.w, LogKey: nd.lk}
	}
	return out
}

// sameItems compares two samples bit for bit.
func sameItems(t *testing.T, label string, got, want []Item[uint64]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Elem != w.Elem || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) ||
			math.Float64bits(g.LogKey) != math.Float64bits(w.LogKey) {
			t.Fatalf("%s: item %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// randomNodes builds m retained nodes in arrival order (strictly
// increasing, gapped indices, as after skyband drops) with ES log-keys.
// With ties set, keys come from a handful of values, so exact ties are
// everywhere, including across the k-th place.
func randomNodes(rng *xrand.Rand, m int, ties bool) []node[uint64] {
	nodes := make([]node[uint64], m)
	idx := rng.Uint64n(100)
	for i := range nodes {
		w := float64(1 + rng.Uint64n(1000))
		lk := drawLogKey(rng, w)
		if ties {
			lk = -float64(rng.Uint64n(4))
		}
		nodes[i] = node[uint64]{elem: stream.Element[uint64]{Value: rng.Uint64(), Index: idx, TS: int64(idx / 3)}, w: w, lk: lk}
		idx += 1 + rng.Uint64n(5)
	}
	return nodes
}

// TestTopItemsMatchesSortOracle is the differential test of the bounded
// selection: on random node sets of every size up to ~700 (the retained
// set at k = 64 over a large window) and k from 1 to 80 — k >= m
// included — topItems must return exactly the sort oracle's items, in
// the same order.
func TestTopItemsMatchesSortOracle(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 600; trial++ {
		m := int(rng.Uint64n(701))
		if trial < 40 {
			m = trial // every tiny set, the empty one included
		}
		k := 1 + int(rng.Uint64n(80))
		nodes := randomNodes(rng, m, trial%4 == 3)
		sameItems(t, "random", topItems(nodes, k), sortTopItems(nodes, k))
	}
}

// TestTopItemsTieRule pins the order of exact key ties by hand: the
// larger log-key first, then the earlier arrival — also when the tie
// straddles the k-th place, where the earlier arrival makes the sample
// and the later one does not.
func TestTopItemsTieRule(t *testing.T) {
	mk := func(lks ...float64) []node[uint64] {
		nodes := make([]node[uint64], len(lks))
		for i, lk := range lks {
			nodes[i] = node[uint64]{elem: stream.Element[uint64]{Value: uint64(i), Index: uint64(10 * i)}, w: 1, lk: lk}
		}
		return nodes
	}
	cases := []struct {
		name string
		lks  []float64
		k    int
		want []uint64 // values (arrival positions) in sample order
	}{
		{"straddles k-th place", []float64{-1, -2, -1, -3, -2}, 3, []uint64{0, 2, 1}},
		{"all equal", []float64{-5, -5, -5, -5, -5, -5}, 4, []uint64{0, 1, 2, 3}},
		{"tie at the top, k >= m", []float64{-3, -1, -2, -1}, 8, []uint64{1, 3, 2, 0}},
		{"newest tie loses", []float64{-4, -1, -4, -4}, 2, []uint64{1, 0}},
	}
	for _, c := range cases {
		got := topItems(mk(c.lks...), c.k)
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d items, want %d", c.name, len(got), len(c.want))
		}
		for i, it := range got {
			if it.Elem.Value != c.want[i] {
				t.Fatalf("%s: position %d holds arrival %d, want %d", c.name, i, it.Elem.Value, c.want[i])
			}
		}
		sameItems(t, c.name, got, sortTopItems(mk(c.lks...), c.k))
	}
}

// TestTopItemsTieRuleAgreesWithSkyband checks that the tie rule is the
// one the skyband retains by: feed key sequences full of exact ties
// through insertNode (no expiry, so the window is the whole prefix) and
// the retained set's topItems must equal the oracle's top-k over EVERY
// element inserted so far. A rule that ranked the newer of two equal keys
// first would need nodes the strict beating has already dropped.
func TestTopItemsTieRuleAgreesWithSkyband(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 200; trial++ {
		k := 1 + int(rng.Uint64n(6))
		var retained, all []node[uint64]
		for i := 0; i < 60; i++ {
			e := stream.Element[uint64]{Value: uint64(i), Index: uint64(i)}
			lk := -float64(rng.Uint64n(5))
			retained = insertNode(retained, k, e, 1, lk)
			all = append(all, node[uint64]{elem: e, w: 1, lk: lk})
			sameItems(t, "skyband", topItems(retained, k), sortTopItems(all, k))
		}
	}
}
