package weighted

import (
	"fmt"
	"reflect"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/window"
	"slidingsample/internal/xrand"
)

// insertNodeCopy is the skyband walk the in-place insertNode replaced,
// kept as the differential oracle: every node is copied out as the range
// value, bumped, and appended back through a second copy.
func insertNodeCopy[T any](nodes []node[T], k int, e stream.Element[T], w, lk float64) []node[T] {
	old := len(nodes)
	keep := nodes[:0]
	for _, nd := range nodes {
		if nd.lk < lk {
			nd.beat++
		}
		if nd.beat < k {
			keep = append(keep, nd)
		}
	}
	nodes = append(keep, node[T]{elem: e, w: w, lk: lk})
	if len(nodes) < old {
		clear(nodes[len(nodes):old])
	}
	return nodes
}

// sameNodes compares two retained sets over their whole backing arrays:
// the nodes with their beat counts, and the slack past len, which must be
// zero in both (evicted payloads may not stay reachable).
func sameNodes(t *testing.T, label string, got, want []node[string]) {
	t.Helper()
	if len(got) != len(want) || cap(got) != cap(want) {
		t.Fatalf("%s: %d/%d nodes (len/cap), want %d/%d", label, len(got), cap(got), len(want), cap(want))
	}
	if !reflect.DeepEqual(got[:cap(got)], want[:cap(want)]) {
		t.Fatalf("%s: retained nodes differ\ngot  %+v\nwant %+v", label, got, want)
	}
	for i, nd := range got[len(got):cap(got)] {
		if nd != (node[string]{}) {
			t.Fatalf("%s: slack slot %d holds %+v", label, len(got)+i, nd)
		}
	}
}

// diffWeight draws a weight from a few orders of magnitude, so heavy
// arrivals evict runs of light nodes and light ones evict nothing.
func diffWeight(rng *xrand.Rand) float64 {
	return float64(1+rng.Intn(9)) * []float64{0.01, 1, 100}[rng.Intn(3)]
}

var diffKs = []int{1, 2, 3, 4, 7, 8, 16, 31, 64}

func TestInsertNodeMatchesCopyOracleSeq(t *testing.T) {
	for _, k := range diffKs {
		for _, n := range []uint64{1, 50, 5000} {
			label := fmt.Sprintf("k=%d n=%d", k, n)
			rng := xrand.New(uint64(k)*131 + n)
			got := skyband[string]{win: window.Sequence{N: n}, k: k, rng: rng.SplitValue()}
			want := got
			for i := 0; i < 2500; i++ {
				e := stream.Element[string]{Value: fmt.Sprint("v", i), Index: uint64(i)}
				w := diffWeight(rng)
				got.observe(e, w)
				// skyband.observe with the copy-based walk.
				want.nodes = insertNodeCopy(want.nodes, want.k, e, w, drawLogKey(&want.rng, w))
				j := 0
				for j < len(want.nodes) && !want.win.Active(want.nodes[j].elem.Index, e.Index) {
					j++
				}
				dropFront(&want.nodes, j)
				if got.rng != want.rng {
					t.Fatalf("%s arrival %d: rng streams diverged", label, i)
				}
				sameNodes(t, fmt.Sprintf("%s arrival %d", label, i), got.nodes, want.nodes)
			}
		}
	}
}

func TestInsertNodeMatchesCopyOracleTS(t *testing.T) {
	for _, k := range diffKs {
		for _, t0 := range []int64{1, 16, 600} {
			label := fmt.Sprintf("k=%d t0=%d", k, t0)
			rng := xrand.New(uint64(k)*977 + uint64(t0))
			got := tsSkyband[string]{win: window.Timestamp{T0: t0}, k: k, rng: rng.SplitValue()}
			want := got
			ts := int64(0)
			for i := 0; i < 2500; i++ {
				// Bursts at one tick, small steps, and now and then a gap
				// that expires the whole retained set.
				switch r := rng.Intn(100); {
				case r < 50:
				case r < 97:
					ts += 1 + int64(rng.Intn(2))
				default:
					ts += t0 + int64(rng.Intn(int(t0)))
				}
				e := stream.Element[string]{Value: fmt.Sprint("v", i), Index: uint64(i), TS: ts}
				w := diffWeight(rng)
				got.observe(e, w)
				// tsSkyband.observe with the copy-based walk.
				want.nodes = insertNodeCopy(want.nodes, want.k, e, w, drawLogKey(&want.rng, w))
				want.expire(ts)
				if got.rng != want.rng {
					t.Fatalf("%s arrival %d: rng streams diverged", label, i)
				}
				sameNodes(t, fmt.Sprintf("%s arrival %d", label, i), got.nodes, want.nodes)
			}
		}
	}
}
