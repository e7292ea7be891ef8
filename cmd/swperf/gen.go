package main

import (
	"strconv"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// batch is one generated ingest batch in the shape Instance.Ingest and
// Fabric.Ingest take. ts is nil on sequence-window workloads.
type batch struct {
	values  []string
	ts      []int64
	weights []float64
}

// batchGen draws a workload's ingest batches, in a fixed sequence, from
// generators seeded by the run seed.
type batchGen struct {
	size   int
	key    func() string
	weight func() float64
	arrive stream.Arrivals // nil: sequence window
}

func (g *batchGen) next() batch {
	b := batch{values: make([]string, g.size), weights: make([]float64, g.size)}
	if g.arrive != nil {
		b.ts = make([]int64, g.size)
	}
	for i := range b.values {
		b.values[i] = g.key()
		b.weights[i] = g.weight()
		if b.ts != nil {
			b.ts[i] = g.arrive.Next()
		}
	}
	return b
}

// subSeed derives an independent stream seed for one named generator from
// the run seed, so adding a generator never shifts another's draws.
func subSeed(seed uint64, name string) uint64 { return xrand.TenantSeed(seed, name) }

// zipfKeys returns a draw of prefix+rank with rank ~ Zipf(s) over [0, n).
func zipfKeys(r *xrand.Rand, prefix string, s float64, n int) func() string {
	z := xrand.NewZipf(r, s, n)
	return func() string { return prefix + strconv.FormatUint(z.Next(), 10) }
}

// uniformKeys returns a draw of prefix+u with u uniform over [0, n).
func uniformKeys(r *xrand.Rand, prefix string, n uint64) func() string {
	return func() string { return prefix + strconv.FormatUint(r.Uint64n(n), 10) }
}

// intWeights returns whole-number weights uniform over [1, max]: whole
// numbers keep the JSON short and parse back to the exact same float64.
func intWeights(r *xrand.Rand, max uint64) func() float64 {
	return func() float64 { return float64(1 + r.Uint64n(max)) }
}

// byteWeights returns flow sizes in bytes: 1 plus an exponential with the
// given mean, rounded down, so a few flows carry most of the weight.
func byteWeights(r *xrand.Rand, mean float64) func() float64 {
	return func() float64 { return float64(1 + int64(r.ExpFloat64()*mean)) }
}

// appendJSON encodes b as an IngestRequest body. Generated values are drawn
// from [a-z0-9], so they need no escaping.
func appendJSON(dst []byte, b batch) []byte {
	dst = append(dst, `{"values":[`...)
	for i, v := range b.values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, v...)
		dst = append(dst, '"')
	}
	if b.ts != nil {
		dst = append(dst, `],"timestamps":[`...)
		for i, ts := range b.ts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, ts, 10)
		}
	}
	dst = append(dst, `],"weights":[`...)
	for i, w := range b.weights {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, w, 'g', -1, 64)
	}
	return append(dst, "]}"...)
}

// appendNDJSON encodes b as NDJSON Record lines.
func appendNDJSON(dst []byte, b batch) []byte {
	for i, v := range b.values {
		dst = append(dst, `{"value":"`...)
		dst = append(dst, v...)
		dst = append(dst, '"')
		if b.ts != nil {
			dst = append(dst, `,"ts":`...)
			dst = strconv.AppendInt(dst, b.ts[i], 10)
		}
		dst = append(dst, `,"weight":`...)
		dst = strconv.AppendFloat(dst, b.weights[i], 'g', -1, 64)
		dst = append(dst, "}\n"...)
	}
	return dst
}
