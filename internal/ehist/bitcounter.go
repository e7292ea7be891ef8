package ehist

// bitcounter.go implements the ORIGINAL Datar–Gionis–Indyk–Motwani setting:
// counting the 1s among the last n positions of a bit stream ("how many
// errors among the last n requests"), with (1±ε) error in O(ε⁻¹·log²n)
// bits. Counter (ehist.go) is the timestamp-window adaptation; BitCounter
// is the sequence-window one. Both exist because the Section 5 estimators
// need window-denominated counts in both window models.

// BitCounter approximately counts the 1s among the last n stream positions.
type BitCounter struct {
	n          uint64
	maxPerSize int
	buckets    []bucket[uint64] // oldest first; clocks are the positions of 1s
	pos        uint64           // positions observed so far
	maxWords   int
}

// NewBitCounter returns a counter over a window of the last n positions
// with relative error at most 1/(maxPerSize-1). maxPerSize must be >= 2.
func NewBitCounter(n uint64, maxPerSize int) *BitCounter {
	if n == 0 {
		panic("ehist: NewBitCounter with n == 0")
	}
	if maxPerSize < 2 {
		panic("ehist: NewBitCounter with maxPerSize < 2")
	}
	c := &BitCounter{n: n, maxPerSize: maxPerSize}
	c.maxWords = c.Words()
	return c
}

// NewBitCounterEps returns a counter with relative error at most eps.
func NewBitCounterEps(n uint64, eps float64) *BitCounter {
	if eps <= 0 || eps >= 1 {
		panic("ehist: NewBitCounterEps with eps outside (0,1)")
	}
	return NewBitCounter(n, int(1/eps)+2)
}

// Observe records the next stream position carrying the given bit.
func (c *BitCounter) Observe(bit bool) {
	p := c.pos
	c.pos++
	c.expire()
	if !bit {
		return
	}
	c.buckets = cascade(append(c.buckets, bucket[uint64]{newest: p, oldest: p, size: 1}), c.maxPerSize)
	if w := c.Words(); w > c.maxWords {
		c.maxWords = w
	}
}

// active reports whether position p is inside the window once `pos`
// positions have been observed: the window is [pos-n, pos-1].
func (c *BitCounter) active(p uint64) bool {
	return p+c.n >= c.pos
}

// expire drops buckets whose newest 1 left the window, shifting the
// survivors in place with a zeroed tail (same discipline as Counter.expire:
// no per-expiry reallocation, no stale bucket copies in the slack).
func (c *BitCounter) expire() {
	i := 0
	for i < len(c.buckets) && !c.active(c.buckets[i].newest) {
		i++
	}
	if i > 0 {
		m := copy(c.buckets, c.buckets[i:])
		clear(c.buckets[m:])
		c.buckets = c.buckets[:m]
	}
}

// Estimate returns the approximate number of 1s among the last n positions.
// Exact whenever the oldest bucket lies entirely inside the window.
func (c *BitCounter) Estimate() uint64 {
	c.expire()
	if len(c.buckets) == 0 {
		return 0
	}
	total := uint64(0)
	for _, b := range c.buckets {
		total += b.size
	}
	if c.active(c.buckets[0].oldest) {
		return total
	}
	return total - c.buckets[0].size/2
}

// Pos returns the number of positions observed.
func (c *BitCounter) Pos() uint64 { return c.pos }

// Buckets returns the current bucket count (diagnostics).
func (c *BitCounter) Buckets() int { return len(c.buckets) }

// Words reports the footprint under the DESIGN.md §6 model: 3 words per
// bucket plus two scalars.
func (c *BitCounter) Words() int { return 2 + 3*len(c.buckets) }

// MaxWords returns the peak footprint.
func (c *BitCounter) MaxWords() int { return c.maxWords }
