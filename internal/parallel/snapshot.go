// snapshot.go: versioned checkpoint codecs for the sharded samplers.
//
// A sharded snapshot is taken AFTER an ingest barrier — Snapshot drains
// one itself, so the channels are empty, the workers are idle, and the
// shard samplers hold exactly the elements dispatched so far. What rides
// the wire is the persistent state only: the dealing cursor and arrival
// count, the dispatcher-side rng and oracles, and each shard sampler's
// body through its package's exported codec. Transport (channels, buffer
// generations, dirty flags) and the per-query weight caches are rebuilt
// empty/invalid on restore — the first query after a restore re-derives
// them, which is exactly what the first query after a barrier does.
//
// Restore constructs the dispatcher through the normal startDispatcher
// path (workers spawned, synced true) and then loads the persistent
// fields; no randomness is drawn anywhere on the restore path, because
// the snapshot carries every rng verbatim. Worker goroutines are spawned
// only after the whole body decoded cleanly, so a truncated or corrupt
// snapshot never leaks a dispatcher.
//
// Like every other method on these samplers, Snapshot belongs to the
// single producer goroutine.
package parallel

import (
	"io"

	"slidingsample/internal/core"
	"slidingsample/internal/ehist"
	"slidingsample/internal/snap"
	"slidingsample/internal/stream"
	"slidingsample/internal/weighted"
)

// Snapshot kind tags.
const (
	kindShardedSeqWR          = "parallel.ShardedSeqWR"
	kindShardedTSWR           = "parallel.ShardedTSWR"
	kindShardedTSWOR          = "parallel.ShardedTSWOR"
	kindShardedWeightedTSWOR  = "parallel.ShardedWeightedTSWOR"
	kindShardedWeightedTSWR   = "parallel.ShardedWeightedTSWR"
	kindShardedWeightedSeqWOR = "parallel.ShardedWeightedSeqWOR"
	kindShardedWeightedSeqWR  = "parallel.ShardedWeightedSeqWR"
)

// encodeDealer writes the dispatcher's persistent scalars (cursor and
// arrival count); everything else in the dispatcher is transport.
func encodeDealer[T any](w *snap.Writer, d *dispatcher[T]) {
	w.Int(d.next)
	w.U64(d.count)
}

// decodeDealer reads the dispatcher scalars and validates the cursor
// against the shard count.
func decodeDealer(r *snap.Reader, g int) (next int, count uint64) {
	next = r.Int()
	count = r.U64()
	if r.Err() == nil && (next < 0 || next >= g) {
		r.Failf("parallel dispatcher cursor %d outside [0, %d)", next, g)
	}
	return next, count
}

// validShardCount gates the shard-loop bound before any allocation.
func validShardCount(r *snap.Reader, g int) bool {
	if r.Err() != nil {
		return false
	}
	if g <= 0 || g > snap.MaxParam {
		r.Failf("parallel snapshot with g %d", g)
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// ShardedSeqWR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w. It
// drains an ingest barrier first, so the snapshot reflects every element
// dispatched before the call. Producer goroutine only.
func (s *ShardedSeqWR[T]) Snapshot(w io.Writer) error {
	s.d.barrier()
	sw := snap.NewWriter(w, kindShardedSeqWR)
	sw.Int(s.g)
	sw.Int(s.k)
	sw.U64(s.per)
	snap.WriteRand(sw, s.rng)
	encodeDealer(sw, s.d)
	for _, sh := range s.seq {
		core.EncodeSeqWR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedSeqWR reads a ShardedSeqWR snapshot and starts its shard
// workers. The restored sampler resumes bit-identically: its next draws
// continue the snapshotted rng streams.
func RestoreShardedSeqWR[T any](r io.Reader) (*ShardedSeqWR[T], error) {
	sr, err := snap.NewReader(r, kindShardedSeqWR)
	if err != nil {
		return nil, err
	}
	s := &ShardedSeqWR[T]{}
	s.g = sr.Int()
	s.k = sr.Int()
	s.per = sr.U64()
	if !validShardCount(sr, s.g) {
		return nil, sr.Err()
	}
	if s.k <= 0 || s.per == 0 {
		return nil, snap.Errorf("parallel.ShardedSeqWR with k %d, per %d", s.k, s.per)
	}
	s.rng = snap.ReadRand(sr)
	if sr.Err() == nil && s.rng == nil {
		sr.Failf("parallel.ShardedSeqWR missing rng")
	}
	next, count := decodeDealer(sr, s.g)
	s.seq = make([]*core.SeqWR[T], s.g)
	shards := make([]stream.Sampler[T], s.g)
	for i := 0; i < s.g && sr.Err() == nil; i++ {
		sh := core.DecodeSeqWR[T](sr)
		if sr.Err() != nil {
			break
		}
		if sh.K() != s.k || sh.N() != s.per {
			sr.Failf("parallel.ShardedSeqWR shard %d shape (n %d, k %d) != (per %d, k %d)",
				i, sh.N(), sh.K(), s.per, s.k)
			break
		}
		s.seq[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	s.d = newDispatcher(shards)
	s.d.next = next
	s.d.count = count
	return s, nil
}

// ---------------------------------------------------------------------------
// tsDispatch (shared by ShardedTSWR / ShardedTSWOR)
// ---------------------------------------------------------------------------

// encodeTSDispatch writes the timestamp dispatch's persistent state: the
// shape scalars, the dispatcher rng, the global count estimator, the
// clock, and the dealing scalars. The per-query size cache is transient
// (rebuilt invalid on restore).
func encodeTSDispatch[T any](w *snap.Writer, t *tsDispatch[T]) {
	w.Int(t.g)
	w.Int(t.k)
	w.I64(t.t0)
	snap.WriteRand(w, t.rng)
	ehist.EncodeCounter(w, t.est)
	w.I64(t.now)
	w.Bool(t.begun)
	encodeDealer(w, t.d)
}

// decodeTSDispatch reads the body written by encodeTSDispatch. The
// dispatcher itself is NOT constructed here — the caller attaches it
// after the shard bodies decoded cleanly (so failed restores never spawn
// workers); the dealing scalars are returned for that attachment.
func decodeTSDispatch[T any](r *snap.Reader) (t *tsDispatch[T], next int, count uint64) {
	t = &tsDispatch[T]{}
	t.g = r.Int()
	t.k = r.Int()
	t.t0 = r.I64()
	if !validShardCount(r, t.g) {
		return t, 0, 0
	}
	if t.k <= 0 || t.t0 <= 0 {
		r.Failf("parallel timestamp dispatch with k %d, t0 %d", t.k, t.t0)
		return t, 0, 0
	}
	t.rng = snap.ReadRand(r)
	t.est = ehist.DecodeCounter(r)
	t.now = r.I64()
	t.begun = r.Bool()
	if r.Err() == nil && (t.rng == nil || t.est == nil) {
		r.Failf("parallel timestamp dispatch missing rng or estimator")
		return t, 0, 0
	}
	if r.Err() == nil {
		checkGlobalClock(r, t.est, t.now, t.begun)
	}
	next, count = decodeDealer(r, t.g)
	return t, next, count
}

// checkGlobalClock refuses a timestamp dispatch whose global size counter
// is not on the dispatch clock: both advance together on every dealt
// arrival and on nothing else, so any other pair is a state no stream
// produces (and a counter ahead would panic on the next arrival).
func checkGlobalClock(r *snap.Reader, est *ehist.Counter, now int64, begun bool) {
	if estNow, estStarted := est.Clock(); estNow != now || estStarted != begun {
		r.Failf("parallel timestamp dispatch size counter clock (%d, %v) != dispatch clock (%d, %v)",
			estNow, estStarted, now, begun)
	}
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedTSWR[T]) Snapshot(w io.Writer) error {
	s.ts.d.barrier()
	sw := snap.NewWriter(w, kindShardedTSWR)
	encodeTSDispatch(sw, s.ts)
	for _, sh := range s.shards {
		core.EncodeTSWR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedTSWR reads a ShardedTSWR snapshot and starts its shard
// workers.
func RestoreShardedTSWR[T any](r io.Reader) (*ShardedTSWR[T], error) {
	sr, err := snap.NewReader(r, kindShardedTSWR)
	if err != nil {
		return nil, err
	}
	ts, next, count := decodeTSDispatch[T](sr)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	s := &ShardedTSWR[T]{ts: ts, shards: make([]*core.TSWR[T], ts.g)}
	shards := make([]stream.Sampler[T], ts.g)
	for i := 0; i < ts.g && sr.Err() == nil; i++ {
		sh := core.DecodeTSWR[T](sr)
		if sr.Err() != nil {
			break
		}
		if sh.K() != ts.k || sh.Horizon() != ts.t0 {
			sr.Failf("parallel.ShardedTSWR shard %d shape (t0 %d, k %d) != (t0 %d, k %d)",
				i, sh.Horizon(), sh.K(), ts.t0, ts.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	ts.d = newDispatcher(shards)
	ts.d.next = next
	ts.d.count = count
	return s, nil
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedTSWOR[T]) Snapshot(w io.Writer) error {
	s.ts.d.barrier()
	sw := snap.NewWriter(w, kindShardedTSWOR)
	encodeTSDispatch(sw, s.ts)
	for _, sh := range s.shards {
		core.EncodeTSWOR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedTSWOR reads a ShardedTSWOR snapshot and starts its shard
// workers.
func RestoreShardedTSWOR[T any](r io.Reader) (*ShardedTSWOR[T], error) {
	sr, err := snap.NewReader(r, kindShardedTSWOR)
	if err != nil {
		return nil, err
	}
	ts, next, count := decodeTSDispatch[T](sr)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	s := &ShardedTSWOR[T]{ts: ts, shards: make([]*core.TSWOR[T], ts.g)}
	shards := make([]stream.Sampler[T], ts.g)
	for i := 0; i < ts.g && sr.Err() == nil; i++ {
		sh := core.DecodeTSWOR[T](sr)
		if sr.Err() != nil {
			break
		}
		if sh.K() != ts.k || sh.Horizon() != ts.t0 {
			sr.Failf("parallel.ShardedTSWOR shard %d shape (t0 %d, k %d) != (t0 %d, k %d)",
				i, sh.Horizon(), sh.K(), ts.t0, ts.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	ts.d = newDispatcher(shards)
	ts.d.next = next
	ts.d.count = count
	return s, nil
}

// ---------------------------------------------------------------------------
// wdispatch (shared by the four sharded weighted samplers)
// ---------------------------------------------------------------------------

// encodeWDispatch writes the weighted dispatch's persistent state. The
// weight function is code, not state (re-bound on restore); wscratch and
// the weight cache are transient.
func encodeWDispatch[T any](w *snap.Writer, wd *wdispatch[T]) {
	w.Int(wd.g)
	w.Int(wd.k)
	w.I64(wd.t0)
	w.Bool(wd.seq)
	snap.WriteRand(w, wd.rng)
	w.Len(len(wd.wests))
	for _, est := range wd.wests {
		ehist.EncodeWeighted(w, est)
	}
	ehist.EncodeCounter(w, wd.size)
	w.I64(wd.now)
	w.Bool(wd.begun)
	encodeDealer(w, wd.d)
}

// decodeWDispatch reads the body written by encodeWDispatch, re-binding
// the given weight function. As with decodeTSDispatch, the dispatcher is
// attached by the caller after the shard bodies decoded.
func decodeWDispatch[T any](r *snap.Reader, weight func(T) float64) (wd *wdispatch[T], next int, count uint64) {
	wd = &wdispatch[T]{weight: weight}
	wd.g = r.Int()
	wd.k = r.Int()
	wd.t0 = r.I64()
	wd.seq = r.Bool()
	if !validShardCount(r, wd.g) {
		return wd, 0, 0
	}
	if wd.k <= 0 || wd.t0 <= 0 {
		r.Failf("parallel weighted dispatch with k %d, horizon %d", wd.k, wd.t0)
		return wd, 0, 0
	}
	if weight == nil {
		r.Failf("parallel weighted dispatch restored with nil weight function")
		return wd, 0, 0
	}
	wd.rng = snap.ReadRand(r)
	wests := r.Len(wd.g)
	if r.Err() == nil && wests != wd.g {
		r.Failf("parallel weighted dispatch with %d weight oracles for %d shards", wests, wd.g)
		return wd, 0, 0
	}
	wd.wests = make([]*ehist.Weighted, 0, wd.g)
	for i := 0; i < wd.g && r.Err() == nil; i++ {
		est := ehist.DecodeWeighted(r)
		if r.Err() == nil && est == nil {
			r.Failf("parallel weighted dispatch missing shard %d weight oracle", i)
			break
		}
		wd.wests = append(wd.wests, est)
	}
	wd.size = ehist.DecodeCounter(r)
	wd.now = r.I64()
	wd.begun = r.Bool()
	if r.Err() == nil {
		if wd.rng == nil {
			r.Failf("parallel weighted dispatch missing rng")
			return wd, 0, 0
		}
		// The size oracle exists exactly on timestamp windows.
		if (wd.size == nil) != wd.seq {
			r.Failf("parallel weighted dispatch size oracle mismatch (seq %v)", wd.seq)
			return wd, 0, 0
		}
		if !wd.seq {
			checkGlobalClock(r, wd.size, wd.now, wd.begun)
		}
	}
	next, count = decodeDealer(r, wd.g)
	if r.Err() == nil {
		// A shard's weight oracle sees only arrivals the dispatch dealt: its
		// clock is at most the dispatch clock (timestamp windows) or below
		// the arrival count (sequence windows, where it is the index).
		for i, est := range wd.wests {
			estNow, estStarted := est.Clock()
			if estStarted && (wd.seq && estNow >= int64(count) || !wd.seq && (!wd.begun || estNow > wd.now)) {
				r.Failf("parallel weighted dispatch shard %d weight oracle clock %d ahead of the dispatch", i, estNow)
				break
			}
		}
	}
	return wd, next, count
}

// attachWDispatcher builds the weight-aware dispatcher over decoded
// shards and loads the dealing scalars. Call only after the whole body
// decoded cleanly.
func attachWDispatcher[T any](wd *wdispatch[T], shards []stream.WeightedSampler[T], next int, count uint64) {
	wd.d = newWeightedDispatcher(shards)
	wd.d.next = next
	wd.d.count = count
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. The weight function is not captured;
// Restore re-binds it. Producer goroutine only.
func (s *ShardedWeightedTSWOR[T]) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w, kindShardedWeightedTSWOR)
	EncodeShardedWeightedTSWOR(sw, s)
	return sw.Err()
}

// EncodeShardedWeightedTSWOR writes the header-less body on a shared
// writer (the sharded subset-sum estimator embeds this sampler). Drains
// an ingest barrier first.
func EncodeShardedWeightedTSWOR[T any](w *snap.Writer, s *ShardedWeightedTSWOR[T]) {
	s.w.d.barrier()
	encodeWDispatch(w, s.w)
	for _, sh := range s.shards {
		weighted.EncodeTSWOR(w, sh)
	}
}

// RestoreShardedWeightedTSWOR reads a ShardedWeightedTSWOR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedTSWOR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedTSWOR[T], error) {
	sr, err := snap.NewReader(r, kindShardedWeightedTSWOR)
	if err != nil {
		return nil, err
	}
	s := DecodeShardedWeightedTSWOR(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeShardedWeightedTSWOR reads the header-less body on a shared
// reader.
func DecodeShardedWeightedTSWOR[T any](r *snap.Reader, weight func(T) float64) *ShardedWeightedTSWOR[T] {
	wd, next, count := decodeWDispatch(r, weight)
	if r.Err() != nil {
		return nil
	}
	s := &ShardedWeightedTSWOR[T]{w: wd, shards: make([]*weighted.TSWOR[T], wd.g)}
	shards := make([]stream.WeightedSampler[T], wd.g)
	for i := 0; i < wd.g && r.Err() == nil; i++ {
		sh := weighted.DecodeTSWOR(r, weight)
		if r.Err() != nil {
			break
		}
		if sh.K() != wd.k || sh.Horizon() != wd.t0 {
			r.Failf("parallel.ShardedWeightedTSWOR shard %d shape (t0 %d, k %d) != (t0 %d, k %d)",
				i, sh.Horizon(), sh.K(), wd.t0, wd.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if r.Err() != nil {
		return nil
	}
	attachWDispatcher(wd, shards, next, count)
	return s
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedTSWR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	sw := snap.NewWriter(w, kindShardedWeightedTSWR)
	encodeWDispatch(sw, s.w)
	for _, sh := range s.shards {
		weighted.EncodeTSWR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedWeightedTSWR reads a ShardedWeightedTSWR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedTSWR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedTSWR[T], error) {
	sr, err := snap.NewReader(r, kindShardedWeightedTSWR)
	if err != nil {
		return nil, err
	}
	wd, next, count := decodeWDispatch(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	s := &ShardedWeightedTSWR[T]{w: wd, shards: make([]*weighted.TSWR[T], wd.g)}
	shards := make([]stream.WeightedSampler[T], wd.g)
	for i := 0; i < wd.g && sr.Err() == nil; i++ {
		sh := weighted.DecodeTSWR(sr, weight)
		if sr.Err() != nil {
			break
		}
		if sh.K() != wd.k {
			sr.Failf("parallel.ShardedWeightedTSWR shard %d with k %d != %d", i, sh.K(), wd.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	attachWDispatcher(wd, shards, next, count)
	return s, nil
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedSeqWOR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	sw := snap.NewWriter(w, kindShardedWeightedSeqWOR)
	sw.U64(s.n)
	encodeWDispatch(sw, s.w)
	for _, sh := range s.shards {
		weighted.EncodeWOR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedWeightedSeqWOR reads a ShardedWeightedSeqWOR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedSeqWOR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedSeqWOR[T], error) {
	sr, err := snap.NewReader(r, kindShardedWeightedSeqWOR)
	if err != nil {
		return nil, err
	}
	n := sr.U64()
	wd, next, count := decodeWDispatch(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if !wd.seq || n == 0 || n%uint64(wd.g) != 0 {
		return nil, snap.Errorf("parallel.ShardedWeightedSeqWOR with n %d over g %d (seq %v)", n, wd.g, wd.seq)
	}
	s := &ShardedWeightedSeqWOR[T]{n: n, w: wd, shards: make([]*weighted.WOR[T], wd.g)}
	shards := make([]stream.WeightedSampler[T], wd.g)
	for i := 0; i < wd.g && sr.Err() == nil; i++ {
		sh := weighted.DecodeWOR(sr, weight)
		if sr.Err() != nil {
			break
		}
		if sh.K() != wd.k || sh.N() != n/uint64(wd.g) {
			sr.Failf("parallel.ShardedWeightedSeqWOR shard %d shape (n %d, k %d) != (per %d, k %d)",
				i, sh.N(), sh.K(), n/uint64(wd.g), wd.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	attachWDispatcher(wd, shards, next, count)
	return s, nil
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedSeqWR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	sw := snap.NewWriter(w, kindShardedWeightedSeqWR)
	sw.U64(s.n)
	encodeWDispatch(sw, s.w)
	for _, sh := range s.shards {
		weighted.EncodeWR(sw, sh)
	}
	return sw.Err()
}

// RestoreShardedWeightedSeqWR reads a ShardedWeightedSeqWR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedSeqWR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedSeqWR[T], error) {
	sr, err := snap.NewReader(r, kindShardedWeightedSeqWR)
	if err != nil {
		return nil, err
	}
	n := sr.U64()
	wd, next, count := decodeWDispatch(sr, weight)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if !wd.seq || n == 0 || n%uint64(wd.g) != 0 {
		return nil, snap.Errorf("parallel.ShardedWeightedSeqWR with n %d over g %d (seq %v)", n, wd.g, wd.seq)
	}
	s := &ShardedWeightedSeqWR[T]{n: n, w: wd, shards: make([]*weighted.WR[T], wd.g)}
	shards := make([]stream.WeightedSampler[T], wd.g)
	for i := 0; i < wd.g && sr.Err() == nil; i++ {
		sh := weighted.DecodeWR(sr, weight)
		if sr.Err() != nil {
			break
		}
		if sh.K() != wd.k || sh.N() != n/uint64(wd.g) {
			sr.Failf("parallel.ShardedWeightedSeqWR shard %d shape (n %d, k %d) != (per %d, k %d)",
				i, sh.N(), sh.K(), n/uint64(wd.g), wd.k)
			break
		}
		s.shards[i] = sh
		shards[i] = sh
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	attachWDispatcher(wd, shards, next, count)
	return s, nil
}
