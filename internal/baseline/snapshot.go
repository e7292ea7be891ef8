package baseline

import (
	"io"

	"slidingsample/internal/snap"
	"slidingsample/internal/window"
)

// Snapshot kind tags.
const (
	kindChain      = "baseline.Chain"
	kindOversample = "baseline.Oversample"
	kindPriority   = "baseline.Priority"
	kindSkyband    = "baseline.Skyband"
	kindFullWindow = "baseline.FullWindow"
)

// The decoders construct structs directly (never via New*): construction
// splits generators that the snapshot already carries, and decoders must
// return errors where constructors panic. See internal/core/snapshot.go.

// ---------------------------------------------------------------------------
// Chain / Oversample
// ---------------------------------------------------------------------------

func encodeChain[T any](w *snap.Writer, c *chain[T]) {
	w.U64(c.n)
	snap.WriteRand(w, c.rng)
	w.U64(c.count)
	w.Len(len(c.nodes))
	for _, nd := range c.nodes {
		snap.WriteStored(w, nd.st)
		w.U64(nd.succ)
	}
}

func decodeChain[T any](r *snap.Reader) *chain[T] {
	c := &chain[T]{}
	c.n = r.U64()
	c.rng = snap.ReadRand(r)
	c.count = r.U64()
	if r.Err() != nil {
		return c
	}
	if c.n == 0 || c.rng == nil {
		r.Failf("baseline.chain with n %d", c.n)
		return c
	}
	c.win = window.Sequence{N: c.n}
	n := r.Len(-1)
	c.nodes = make([]chainNode[T], 0, snap.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		st := snap.ReadStored[T](r)
		succ := r.U64()
		if st == nil && r.Err() == nil {
			r.Failf("baseline.chain with nil node")
			break
		}
		c.nodes = append(c.nodes, chainNode[T]{st: st, succ: succ})
	}
	if r.Err() == nil {
		checkChain(r, c)
	}
	return c
}

// checkChain refuses the chains observe cannot reach. After count arrivals
// (the next has index count) a chain holds nodes exactly when count > 0;
// each node's index is below count and its predecessor's successor, and
// its own successor lies in [index+1, index+n]; the head is active at
// index count−1; and the tail's successor has not arrived. A chain that
// breaks one of these can lose its sample on a later arrival, which panics.
func checkChain[T any](r *snap.Reader, c *chain[T]) {
	if (c.count == 0) != (len(c.nodes) == 0) {
		r.Failf("baseline.chain with %d nodes at count %d", len(c.nodes), c.count)
		return
	}
	for i, nd := range c.nodes {
		idx := nd.st.Elem.Index
		switch {
		case idx >= c.count:
			r.Failf("baseline.chain node %d at index %d, count %d", i, idx, c.count)
		case i > 0 && idx != c.nodes[i-1].succ:
			r.Failf("baseline.chain node %d at index %d, not its predecessor's successor %d", i, idx, c.nodes[i-1].succ)
		case nd.succ <= idx || nd.succ-idx > c.n:
			r.Failf("baseline.chain node %d at index %d with successor %d, n %d", i, idx, nd.succ, c.n)
		default:
			continue
		}
		return
	}
	if len(c.nodes) == 0 {
		return
	}
	if head := c.nodes[0].st.Elem.Index; !c.win.Active(head, c.count-1) {
		r.Failf("baseline.chain head %d outside the window at index %d", head, c.count-1)
	} else if succ := c.nodes[len(c.nodes)-1].succ; succ < c.count {
		r.Failf("baseline.chain tail successor %d arrived before count %d", succ, c.count)
	}
}

// Snapshot writes the sampler's full state (header included) to w.
func (c *Chain[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindChain, c, encodeChainTop[T])
}

// RestoreChain reads a Chain snapshot written by Snapshot.
func RestoreChain[T any](r io.Reader) (*Chain[T], error) {
	return snap.Restore(r, kindChain, decodeChainTop[T])
}

func encodeChainTop[T any](w *snap.Writer, c *Chain[T]) {
	w.U64(c.n)
	w.Int(c.k)
	w.Int(c.maxWords)
	for _, ch := range c.chains {
		encodeChain(w, ch)
	}
}

func decodeChainTop[T any](r *snap.Reader) *Chain[T] {
	c := &Chain[T]{}
	c.n = r.U64()
	c.k = r.Int()
	c.maxWords = r.Int()
	if r.Err() != nil {
		return c
	}
	if c.n == 0 || c.k <= 0 || c.k > snap.MaxParam {
		r.Failf("baseline.Chain with n %d, k %d", c.n, c.k)
		return c
	}
	c.chains = make([]*chain[T], c.k)
	for i := 0; i < c.k && r.Err() == nil; i++ {
		c.chains[i] = decodeChain[T](r)
		// Every chain sees every arrival, at the index chains[0] counts.
		if ch := c.chains[i]; r.Err() == nil && (ch.n != c.n || ch.count != c.chains[0].count) {
			r.Failf("baseline.Chain chain %d with n %d, count %d; chain 0 n %d, count %d", i, ch.n, ch.count, c.n, c.chains[0].count)
		}
	}
	return c
}

// Snapshot writes the sampler's full state (header included) to w.
func (o *Oversample[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindOversample, o, encodeOversample[T])
}

// RestoreOversample reads an Oversample snapshot written by Snapshot.
func RestoreOversample[T any](r io.Reader) (*Oversample[T], error) {
	return snap.Restore(r, kindOversample, decodeOversample[T])
}

func encodeOversample[T any](w *snap.Writer, o *Oversample[T]) {
	w.U64(o.n)
	w.Int(o.k)
	w.Int(o.factor)
	snap.WriteRand(w, o.rng)
	w.U64(o.failures)
	w.U64(o.queries)
	encodeChainTop(w, o.inner)
}

func decodeOversample[T any](r *snap.Reader) *Oversample[T] {
	o := &Oversample[T]{}
	o.n = r.U64()
	o.k = r.Int()
	o.factor = r.Int()
	o.rng = snap.ReadRand(r)
	o.failures = r.U64()
	o.queries = r.U64()
	if r.Err() != nil {
		return o
	}
	if o.k <= 0 || o.factor < 1 || o.rng == nil {
		r.Failf("baseline.Oversample with k %d, factor %d", o.k, o.factor)
		return o
	}
	o.inner = decodeChainTop[T](r)
	return o
}

// ---------------------------------------------------------------------------
// Priority / Skyband
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w.
func (p *Priority[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindPriority, p, encodePriority[T])
}

// RestorePriority reads a Priority snapshot written by Snapshot.
func RestorePriority[T any](r io.Reader) (*Priority[T], error) {
	return snap.Restore(r, kindPriority, decodePriority[T])
}

func encodePriority[T any](w *snap.Writer, p *Priority[T]) {
	w.I64(p.t0)
	w.Int(p.k)
	w.U64(p.count)
	w.I64(p.now)
	w.Int(p.maxWords)
	for _, c := range p.copies {
		snap.WriteRand(w, c.rng)
		w.Len(len(c.nodes))
		for _, nd := range c.nodes {
			snap.WriteStored(w, nd.st)
			w.U64(nd.prio)
		}
	}
}

func decodePriority[T any](r *snap.Reader) *Priority[T] {
	p := &Priority[T]{}
	p.t0 = r.I64()
	p.k = r.Int()
	p.count = r.U64()
	p.now = r.I64()
	p.maxWords = r.Int()
	if r.Err() != nil {
		return p
	}
	if p.t0 <= 0 || p.k <= 0 || p.k > snap.MaxParam {
		r.Failf("baseline.Priority with t0 %d, k %d", p.t0, p.k)
		return p
	}
	p.copies = make([]*prio[T], p.k)
	for i := 0; i < p.k && r.Err() == nil; i++ {
		c := &prio[T]{w: window.Timestamp{T0: p.t0}}
		c.rng = snap.ReadRand(r)
		if r.Err() == nil && c.rng == nil {
			r.Failf("baseline.prio missing rng")
			break
		}
		n := r.Len(-1)
		c.nodes = make([]prioNode[T], 0, snap.CapHint(n))
		for j := 0; j < n && r.Err() == nil; j++ {
			st := snap.ReadStored[T](r)
			pr := r.U64()
			if st == nil && r.Err() == nil {
				r.Failf("baseline.prio with nil node")
				break
			}
			c.nodes = append(c.nodes, prioNode[T]{st: st, prio: pr})
		}
		p.copies[i] = c
	}
	return p
}

// Snapshot writes the sampler's full state (header included) to w.
func (s *Skyband[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindSkyband, s, encodeSkyband[T])
}

// RestoreSkyband reads a Skyband snapshot written by Snapshot.
func RestoreSkyband[T any](r io.Reader) (*Skyband[T], error) {
	return snap.Restore(r, kindSkyband, decodeSkyband[T])
}

func encodeSkyband[T any](w *snap.Writer, s *Skyband[T]) {
	w.I64(s.t0)
	w.Int(s.k)
	snap.WriteRand(w, s.rng)
	w.U64(s.count)
	w.I64(s.now)
	w.Int(s.maxWords)
	w.Len(len(s.nodes))
	for _, nd := range s.nodes {
		snap.WriteStored(w, nd.st)
		w.U64(nd.prio)
		w.Int(nd.dominated)
	}
}

func decodeSkyband[T any](r *snap.Reader) *Skyband[T] {
	s := &Skyband[T]{}
	s.t0 = r.I64()
	s.k = r.Int()
	s.rng = snap.ReadRand(r)
	s.count = r.U64()
	s.now = r.I64()
	s.maxWords = r.Int()
	if r.Err() != nil {
		return s
	}
	if s.t0 <= 0 || s.k <= 0 || s.rng == nil {
		r.Failf("baseline.Skyband with t0 %d, k %d", s.t0, s.k)
		return s
	}
	s.w = window.Timestamp{T0: s.t0}
	n := r.Len(-1)
	s.nodes = make([]skyNode[T], 0, snap.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		st := snap.ReadStored[T](r)
		prio := r.U64()
		dominated := r.Int()
		if st == nil && r.Err() == nil {
			r.Failf("baseline.Skyband with nil node")
			break
		}
		s.nodes = append(s.nodes, skyNode[T]{st: st, prio: prio, dominated: dominated})
	}
	return s
}

// ---------------------------------------------------------------------------
// FullWindow
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w. The
// whole window content rides along — this is the store-everything
// baseline, its snapshot is Θ(n) by construction.
func (f *FullWindow[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindFullWindow, f, encodeFullWindow[T])
}

// RestoreFullWindow reads a FullWindow snapshot written by Snapshot.
func RestoreFullWindow[T any](r io.Reader) (*FullWindow[T], error) {
	return snap.Restore(r, kindFullWindow, decodeFullWindow[T])
}

func encodeFullWindow[T any](w *snap.Writer, f *FullWindow[T]) {
	snap.WriteRand(w, f.rng)
	w.U64(f.n)
	w.I64(f.lastTS)
	w.Int(f.k)
	w.Bool(f.wor)
	w.Int(f.maxWords)
	window.EncodeSeqBuffer(w, f.seq)
	window.EncodeTSBuffer(w, f.tsb)
}

func decodeFullWindow[T any](r *snap.Reader) *FullWindow[T] {
	f := &FullWindow[T]{}
	f.rng = snap.ReadRand(r)
	f.n = r.U64()
	f.lastTS = r.I64()
	f.k = r.Int()
	f.wor = r.Bool()
	f.maxWords = r.Int()
	f.seq = window.DecodeSeqBuffer[T](r)
	f.tsb = window.DecodeTSBuffer[T](r)
	switch {
	case r.Err() != nil:
	case f.rng == nil:
		r.Failf("baseline.FullWindow missing rng")
	case (f.seq == nil) == (f.tsb == nil):
		r.Failf("baseline.FullWindow needs exactly one buffer")
	}
	return f
}
