package baseline

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// TestDecodeRefusesUnreachableChains corrupts a Chain after 30 arrivals
// (n 8, so the next arrival has index 30) into states its Observe cannot
// reach, and checks that RestoreChain and RestoreOversample, which decodes
// the same chains, refuse each one. Every corrupted row restored before
// the decoder checked chains, and most then panicked "chain lost its
// sample" within n arrivals.
func TestDecodeRefusesUnreachableChains(t *testing.T) {
	const n, count = 8, 30
	// links builds a chain's nodes from (index, successor) pairs.
	links := func(pairs ...uint64) []chainNode[uint64] {
		var nodes []chainNode[uint64]
		for i := 0; i < len(pairs); i += 2 {
			nodes = append(nodes, chainNode[uint64]{
				st:   &stream.Stored[uint64]{Elem: stream.Element[uint64]{Value: pairs[i], Index: pairs[i]}},
				succ: pairs[i+1],
			})
		}
		return nodes
	}
	cases := []struct {
		name    string
		corrupt func(c *Chain[uint64])
		want    string
	}{
		{"untouched", func(*Chain[uint64]) {}, ""},
		{"a valid hand-built chain", func(c *Chain[uint64]) { c.chains[0].nodes = links(25, 28, 28, 33) }, ""},
		{"nodes at count 0", func(c *Chain[uint64]) {
			for _, ch := range c.chains {
				ch.count, ch.nodes = 0, links(0, 3)
			}
		}, "baseline.chain with 1 nodes at count 0"},
		{"no nodes at count > 0", func(c *Chain[uint64]) { c.chains[0].nodes = nil }, "baseline.chain with 0 nodes at count 30"},
		{"node index at count", func(c *Chain[uint64]) { c.chains[0].nodes = links(30, 31) }, "node 0 at index 30, count 30"},
		{"link not its predecessor's successor", func(c *Chain[uint64]) { c.chains[0].nodes = links(25, 28, 29, 33) }, "node 1 at index 29, not its predecessor's successor 28"},
		{"successor at its own index", func(c *Chain[uint64]) { c.chains[0].nodes = links(29, 29) }, "node 0 at index 29 with successor 29, n 8"},
		{"successor past index+n", func(c *Chain[uint64]) { c.chains[0].nodes = links(29, 38) }, "node 0 at index 29 with successor 38, n 8"},
		{"head outside the window", func(c *Chain[uint64]) { c.chains[0].nodes = links(21, 29, 29, 33) }, "head 21 outside the window at index 29"},
		{"tail successor arrived", func(c *Chain[uint64]) { c.chains[0].nodes = links(25, 29) }, "tail successor 29 arrived before count 30"},
		{"chains with different counts", func(c *Chain[uint64]) {
			c.chains[1].count, c.chains[1].nodes = count+1, links(30, 33)
		}, "chain 1 with n 8, count 31; chain 0 n 8, count 30"},
		{"chains with different n", func(c *Chain[uint64]) { c.chains[1].n = n + 1 }, "chain 1 with n 9, count 30"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChain[uint64](xrand.New(1), n, 2)
			for i := 0; i < count; i++ {
				c.Observe(uint64(i), int64(i))
			}
			tc.corrupt(c)
			o := NewOversample[uint64](xrand.New(2), n, 1, 2)
			o.inner = c
			var bc, bo bytes.Buffer
			if err := errors.Join(c.Snapshot(&bc), o.Snapshot(&bo)); err != nil {
				t.Fatal(err)
			}
			rc, errC := RestoreChain[uint64](&bc)
			ro, errO := RestoreOversample[uint64](&bo)
			for _, err := range []error{errC, errO} {
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("reachable state refused: %v", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("restore error %v, want one containing %q", err, tc.want)
				}
			}
			if tc.want != "" {
				return
			}
			// A state the decoder admits keeps its sample through a full
			// window of further arrivals.
			for i := count; i < count+2*n; i++ {
				rc.Observe(uint64(i), int64(i))
				ro.Observe(uint64(i), int64(i))
				if _, ok := rc.Sample(); !ok {
					t.Fatalf("restored chain has no sample after arrival %d", i)
				}
			}
		})
	}
}
