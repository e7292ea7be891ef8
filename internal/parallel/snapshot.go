// snapshot.go: versioned checkpoint codecs for the sharded samplers.
//
// A sharded snapshot is taken AFTER an ingest barrier — Snapshot drains
// one itself, so the channels are empty, the workers are idle, and the
// shard samplers hold exactly the elements dispatched so far. What rides
// the wire is the persistent state only: the dealing cursor and arrival
// count, the dispatcher-side rng and oracles, and each shard sampler's
// body through its package's exported codec. Transport (channels and the
// free lists of batch slices) and the per-query weight caches are rebuilt
// empty/invalid on restore — the first query after a restore re-derives
// them, which is exactly what the first query after a barrier does.
//
// Restore constructs the dispatcher through the normal startDispatcher
// path (workers spawned, synced true) and then loads the persistent
// fields; no randomness is drawn anywhere on the restore path, because
// the snapshot carries every rng verbatim. Every kind decodes its shards
// through one loop (decodeShards), and worker goroutines are spawned only
// after the whole body decoded cleanly, so a truncated or corrupt
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

// dealing is the dispatcher's persistent state: the dealing cursor and the
// arrival count. Everything else in a dispatcher is transport.
type dealing struct {
	next  int
	count uint64
}

// encodeDealer writes the dispatcher's dealing scalars.
func encodeDealer[T any](w *snap.Writer, d *dispatcher[T]) {
	w.Int(d.next)
	w.U64(d.count)
}

// decodeDealer reads the dealing scalars and validates the cursor against
// the shard count.
func decodeDealer(r *snap.Reader, g int) dealing {
	dl := dealing{next: r.Int(), count: r.U64()}
	if r.Err() == nil && (dl.next < 0 || dl.next >= g) {
		r.Failf("parallel dispatcher cursor %d outside [0, %d)", dl.next, g)
	}
	return dl
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

// decodeShards is every kind's shard loop: it reads g shard bodies with
// decode and hands each to check, which refuses a shard whose shape is not
// the dispatch's by latching a Failf. It stops at the first failure and
// starts nothing; the caller starts the workers once the body decoded.
func decodeShards[S any](r *snap.Reader, g int, decode func(*snap.Reader) S, check func(i int, sh S)) []S {
	shards := make([]S, 0, snap.CapHint(g))
	for i := 0; i < g && r.Err() == nil; i++ {
		sh := decode(r)
		if r.Err() == nil {
			check(i, sh)
		}
		shards = append(shards, sh)
	}
	return shards
}

// checkHorizon refuses a timestamp shard whose horizon or k is not the
// dispatch's.
func checkHorizon[S interface {
	K() int
	Horizon() int64
}](r *snap.Reader, kind string, t0 int64, k int) func(int, S) {
	return func(i int, sh S) {
		if sh.K() != k || sh.Horizon() != t0 {
			r.Failf("%s shard %d shape (t0 %d, k %d) != (t0 %d, k %d)", kind, i, sh.Horizon(), sh.K(), t0, k)
		}
	}
}

// checkWindow refuses a sequence shard whose window or k is not the
// dispatch's (per = n/g elements per shard).
func checkWindow[S interface {
	K() int
	N() uint64
}](r *snap.Reader, kind string, per uint64, k int) func(int, S) {
	return func(i int, sh S) {
		if sh.K() != k || sh.N() != per {
			r.Failf("%s shard %d shape (n %d, k %d) != (per %d, k %d)", kind, i, sh.N(), sh.K(), per, k)
		}
	}
}

// startShards starts the workers over decoded shards and loads the dealing
// scalars, unless the body failed to decode.
func startShards[T any, S stream.Sampler[T]](r *snap.Reader, shards []S, dl dealing) *dispatcher[T] {
	if r.Err() != nil {
		return nil
	}
	samplers := make([]stream.Sampler[T], len(shards))
	for i, sh := range shards {
		samplers[i] = sh
	}
	d := newDispatcher(samplers)
	d.next, d.count = dl.next, dl.count
	return d
}

// startWeightedShards is startShards for the weight-aware dispatcher.
func startWeightedShards[T any, S stream.WeightedSampler[T]](r *snap.Reader, wd *wdispatch[T], shards []S, dl dealing) {
	if r.Err() != nil {
		return
	}
	samplers := make([]stream.WeightedSampler[T], len(shards))
	for i, sh := range shards {
		samplers[i] = sh
	}
	wd.d = newWeightedDispatcher(samplers)
	wd.d.next, wd.d.count = dl.next, dl.count
}

// ---------------------------------------------------------------------------
// ShardedSeqWR
// ---------------------------------------------------------------------------

// Snapshot writes the sampler's full state (header included) to w. It
// drains an ingest barrier first, so the snapshot reflects every element
// dispatched before the call. Producer goroutine only.
func (s *ShardedSeqWR[T]) Snapshot(w io.Writer) error {
	s.d.barrier()
	return snap.Save(w, kindShardedSeqWR, s, encodeShardedSeqWR[T])
}

// RestoreShardedSeqWR reads a ShardedSeqWR snapshot and starts its shard
// workers. The restored sampler resumes bit-identically: its next draws
// continue the snapshotted rng streams.
func RestoreShardedSeqWR[T any](r io.Reader) (*ShardedSeqWR[T], error) {
	return snap.Restore(r, kindShardedSeqWR, decodeShardedSeqWR[T])
}

func encodeShardedSeqWR[T any](w *snap.Writer, s *ShardedSeqWR[T]) {
	w.Int(s.g)
	w.Int(s.k)
	w.U64(s.per)
	snap.WriteRand(w, s.rng)
	encodeDealer(w, s.d)
	for _, sh := range s.seq {
		core.EncodeSeqWR(w, sh)
	}
}

func decodeShardedSeqWR[T any](r *snap.Reader) *ShardedSeqWR[T] {
	s := &ShardedSeqWR[T]{}
	s.g = r.Int()
	s.k = r.Int()
	s.per = r.U64()
	if !validShardCount(r, s.g) {
		return s
	}
	if s.k <= 0 || s.per == 0 {
		r.Failf("parallel.ShardedSeqWR with k %d, per %d", s.k, s.per)
		return s
	}
	s.rng = snap.ReadRand(r)
	if r.Err() == nil && s.rng == nil {
		r.Failf("parallel.ShardedSeqWR missing rng")
	}
	dl := decodeDealer(r, s.g)
	s.seq = decodeShards(r, s.g, core.DecodeSeqWR[T], checkWindow[*core.SeqWR[T]](r, kindShardedSeqWR, s.per, s.k))
	s.d = startShards[T](r, s.seq, dl)
	return s
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
// dispatcher itself is NOT constructed here — the caller starts it after
// the shard bodies decoded cleanly (so failed restores never spawn
// workers); the dealing scalars are returned for that start.
func decodeTSDispatch[T any](r *snap.Reader) (*tsDispatch[T], dealing) {
	t := &tsDispatch[T]{}
	t.g = r.Int()
	t.k = r.Int()
	t.t0 = r.I64()
	if !validShardCount(r, t.g) {
		return t, dealing{}
	}
	if t.k <= 0 || t.t0 <= 0 {
		r.Failf("parallel timestamp dispatch with k %d, t0 %d", t.k, t.t0)
		return t, dealing{}
	}
	t.rng = snap.ReadRand(r)
	t.est = ehist.DecodeCounter(r)
	t.now = r.I64()
	t.begun = r.Bool()
	if r.Err() == nil && (t.rng == nil || t.est == nil) {
		r.Failf("parallel timestamp dispatch missing rng or estimator")
		return t, dealing{}
	}
	if r.Err() == nil {
		checkGlobalClock(r, t.est, t.now, t.begun)
	}
	return t, decodeDealer(r, t.g)
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
	return snap.Save(w, kindShardedTSWR, s, func(w *snap.Writer, s *ShardedTSWR[T]) {
		encodeTSDispatch(w, s.ts)
		for _, sh := range s.shards {
			core.EncodeTSWR(w, sh)
		}
	})
}

// RestoreShardedTSWR reads a ShardedTSWR snapshot and starts its shard
// workers.
func RestoreShardedTSWR[T any](r io.Reader) (*ShardedTSWR[T], error) {
	return snap.Restore(r, kindShardedTSWR, func(r *snap.Reader) *ShardedTSWR[T] {
		ts, dl := decodeTSDispatch[T](r)
		s := &ShardedTSWR[T]{ts: ts}
		s.shards = decodeShards(r, ts.g, core.DecodeTSWR[T], checkHorizon[*core.TSWR[T]](r, kindShardedTSWR, ts.t0, ts.k))
		ts.d = startShards[T](r, s.shards, dl)
		return s
	})
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedTSWOR[T]) Snapshot(w io.Writer) error {
	s.ts.d.barrier()
	return snap.Save(w, kindShardedTSWOR, s, func(w *snap.Writer, s *ShardedTSWOR[T]) {
		encodeTSDispatch(w, s.ts)
		for _, sh := range s.shards {
			core.EncodeTSWOR(w, sh)
		}
	})
}

// RestoreShardedTSWOR reads a ShardedTSWOR snapshot and starts its shard
// workers.
func RestoreShardedTSWOR[T any](r io.Reader) (*ShardedTSWOR[T], error) {
	return snap.Restore(r, kindShardedTSWOR, func(r *snap.Reader) *ShardedTSWOR[T] {
		ts, dl := decodeTSDispatch[T](r)
		s := &ShardedTSWOR[T]{ts: ts}
		s.shards = decodeShards(r, ts.g, core.DecodeTSWOR[T], checkHorizon[*core.TSWOR[T]](r, kindShardedTSWOR, ts.t0, ts.k))
		ts.d = startShards[T](r, s.shards, dl)
		return s
	})
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
// the given weight function. As with decodeTSDispatch, the caller starts
// the dispatcher after the shard bodies decoded.
func decodeWDispatch[T any](r *snap.Reader, weight func(T) float64) (*wdispatch[T], dealing) {
	wd := &wdispatch[T]{weight: weight}
	wd.g = r.Int()
	wd.k = r.Int()
	wd.t0 = r.I64()
	wd.seq = r.Bool()
	if !validShardCount(r, wd.g) {
		return wd, dealing{}
	}
	if wd.k <= 0 || wd.t0 <= 0 {
		r.Failf("parallel weighted dispatch with k %d, horizon %d", wd.k, wd.t0)
		return wd, dealing{}
	}
	if weight == nil {
		r.Failf("parallel weighted dispatch restored with nil weight function")
		return wd, dealing{}
	}
	wd.rng = snap.ReadRand(r)
	wests := r.Len(wd.g)
	if r.Err() == nil && wests != wd.g {
		r.Failf("parallel weighted dispatch with %d weight oracles for %d shards", wests, wd.g)
		return wd, dealing{}
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
			return wd, dealing{}
		}
		// The size oracle exists exactly on timestamp windows.
		if (wd.size == nil) != wd.seq {
			r.Failf("parallel weighted dispatch size oracle mismatch (seq %v)", wd.seq)
			return wd, dealing{}
		}
		if !wd.seq {
			checkGlobalClock(r, wd.size, wd.now, wd.begun)
		}
	}
	dl := decodeDealer(r, wd.g)
	if r.Err() == nil {
		// A shard's weight oracle sees only arrivals the dispatch dealt: its
		// clock is at most the dispatch clock (timestamp windows) or below
		// the arrival count (sequence windows, where it is the index).
		for i, est := range wd.wests {
			estNow, estStarted := est.Clock()
			if estStarted && (wd.seq && estNow >= int64(dl.count) || !wd.seq && (!wd.begun || estNow > wd.now)) {
				r.Failf("parallel weighted dispatch shard %d weight oracle clock %d ahead of the dispatch", i, estNow)
				break
			}
		}
	}
	return wd, dl
}

// decodeSeqWindow reads a sequence-window weighted dispatch after its
// window size n, refusing an n its g shards cannot split evenly. It
// returns the dispatch, its dealing scalars and the per-shard window n/g.
func decodeSeqWindow[T any](r *snap.Reader, kind string, n uint64, weight func(T) float64) (*wdispatch[T], dealing, uint64) {
	wd, dl := decodeWDispatch(r, weight)
	if r.Err() != nil {
		return wd, dl, 0
	}
	if !wd.seq || n == 0 || n%uint64(wd.g) != 0 {
		r.Failf("%s with n %d over g %d (seq %v)", kind, n, wd.g, wd.seq)
		return wd, dl, 0
	}
	return wd, dl, n / uint64(wd.g)
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. The weight function is not captured;
// Restore re-binds it. Producer goroutine only.
func (s *ShardedWeightedTSWOR[T]) Snapshot(w io.Writer) error {
	return snap.Save(w, kindShardedWeightedTSWOR, s, EncodeShardedWeightedTSWOR[T])
}

// RestoreShardedWeightedTSWOR reads a ShardedWeightedTSWOR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedTSWOR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedTSWOR[T], error) {
	return snap.Restore(r, kindShardedWeightedTSWOR, func(r *snap.Reader) *ShardedWeightedTSWOR[T] {
		return DecodeShardedWeightedTSWOR(r, weight)
	})
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

// DecodeShardedWeightedTSWOR reads the header-less body on a shared
// reader and starts the shard workers once it decoded in full.
func DecodeShardedWeightedTSWOR[T any](r *snap.Reader, weight func(T) float64) *ShardedWeightedTSWOR[T] {
	wd, dl := decodeWDispatch(r, weight)
	s := &ShardedWeightedTSWOR[T]{w: wd}
	s.shards = decodeShards(r, wd.g, func(r *snap.Reader) *weighted.TSWOR[T] { return weighted.DecodeTSWOR(r, weight) },
		checkHorizon[*weighted.TSWOR[T]](r, kindShardedWeightedTSWOR, wd.t0, wd.k))
	startWeightedShards(r, wd, s.shards, dl)
	return s
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedTSWR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	return snap.Save(w, kindShardedWeightedTSWR, s, func(w *snap.Writer, s *ShardedWeightedTSWR[T]) {
		encodeWDispatch(w, s.w)
		for _, sh := range s.shards {
			weighted.EncodeTSWR(w, sh)
		}
	})
}

// RestoreShardedWeightedTSWR reads a ShardedWeightedTSWR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedTSWR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedTSWR[T], error) {
	return snap.Restore(r, kindShardedWeightedTSWR, func(r *snap.Reader) *ShardedWeightedTSWR[T] {
		wd, dl := decodeWDispatch(r, weight)
		s := &ShardedWeightedTSWR[T]{w: wd}
		s.shards = decodeShards(r, wd.g, func(r *snap.Reader) *weighted.TSWR[T] { return weighted.DecodeTSWR(r, weight) },
			func(i int, sh *weighted.TSWR[T]) {
				if sh.K() != wd.k {
					r.Failf("parallel.ShardedWeightedTSWR shard %d with k %d != %d", i, sh.K(), wd.k)
				}
			})
		startWeightedShards(r, wd, s.shards, dl)
		return s
	})
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedSeqWOR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	return snap.Save(w, kindShardedWeightedSeqWOR, s, func(w *snap.Writer, s *ShardedWeightedSeqWOR[T]) {
		w.U64(s.n)
		encodeWDispatch(w, s.w)
		for _, sh := range s.shards {
			weighted.EncodeWOR(w, sh)
		}
	})
}

// RestoreShardedWeightedSeqWOR reads a ShardedWeightedSeqWOR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedSeqWOR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedSeqWOR[T], error) {
	return snap.Restore(r, kindShardedWeightedSeqWOR, func(r *snap.Reader) *ShardedWeightedSeqWOR[T] {
		s := &ShardedWeightedSeqWOR[T]{n: r.U64()}
		wd, dl, per := decodeSeqWindow(r, kindShardedWeightedSeqWOR, s.n, weight)
		s.w = wd
		s.shards = decodeShards(r, wd.g, func(r *snap.Reader) *weighted.WOR[T] { return weighted.DecodeWOR(r, weight) },
			checkWindow[*weighted.WOR[T]](r, kindShardedWeightedSeqWOR, per, wd.k))
		startWeightedShards(r, wd, s.shards, dl)
		return s
	})
}

// Snapshot writes the sampler's full state (header included) to w after
// draining an ingest barrier. Producer goroutine only.
func (s *ShardedWeightedSeqWR[T]) Snapshot(w io.Writer) error {
	s.w.d.barrier()
	return snap.Save(w, kindShardedWeightedSeqWR, s, func(w *snap.Writer, s *ShardedWeightedSeqWR[T]) {
		w.U64(s.n)
		encodeWDispatch(w, s.w)
		for _, sh := range s.shards {
			weighted.EncodeWR(w, sh)
		}
	})
}

// RestoreShardedWeightedSeqWR reads a ShardedWeightedSeqWR snapshot,
// re-binding the given weight function, and starts its shard workers.
func RestoreShardedWeightedSeqWR[T any](r io.Reader, weight func(T) float64) (*ShardedWeightedSeqWR[T], error) {
	return snap.Restore(r, kindShardedWeightedSeqWR, func(r *snap.Reader) *ShardedWeightedSeqWR[T] {
		s := &ShardedWeightedSeqWR[T]{n: r.U64()}
		wd, dl, per := decodeSeqWindow(r, kindShardedWeightedSeqWR, s.n, weight)
		s.w = wd
		s.shards = decodeShards(r, wd.g, func(r *snap.Reader) *weighted.WR[T] { return weighted.DecodeWR(r, weight) },
			checkWindow[*weighted.WR[T]](r, kindShardedWeightedSeqWR, per, wd.k))
		startWeightedShards(r, wd, s.shards, dl)
		return s
	})
}
