package slidingsample

import (
	"io"

	"slidingsample/internal/core"
	"slidingsample/internal/snap"
	"slidingsample/internal/stream"
)

// Checkpoint/restore for the public core samplers (DESIGN.md §10). A
// snapshot captures the complete sampler state — window bookkeeping,
// retained elements, and the full RNG state — so a restored sampler
// resumes BIT-IDENTICALLY: under WithSeed, snapshot → restore → resume
// produces exactly the byte stream the uninterrupted sampler would have.
//
// The sequence samplers delegate to their core codec directly (the public
// adapter holds no state of its own); the timestamp samplers prepend the
// adapter's monotone-clock guard so ErrTimeBackwards behavior survives a
// restore too. The weighted and sharded PUBLIC wrappers carry opaque
// per-element weights in their payloads and are not snapshotable through
// this API — serve their stream through the serving layer (internal
// substrates over string values), which snapshots every substrate in the
// vocabulary, sharded dispatchers included.

// Public snapshot kind tags (timestamp adapters only; sequence snapshots
// reuse the core kind).
const (
	kindPublicTSWR  = "slidingsample.TimestampWR"
	kindPublicTSWOR = "slidingsample.TimestampWOR"
)

// Snapshot writes the sampler's full state to w.
func (s *SequenceWR[T]) Snapshot(w io.Writer) error {
	return s.inner.(*core.SeqWR[T]).Snapshot(w)
}

// RestoreSequenceWR reads a SequenceWR snapshot written by Snapshot. The
// restored sampler continues the snapshotted random stream: no seed is
// involved, the RNG state rides the snapshot.
func RestoreSequenceWR[T any](r io.Reader) (*SequenceWR[T], error) {
	inner, err := core.RestoreSeqWR[T](r)
	if err != nil {
		return nil, err
	}
	s := &SequenceWR[T]{n: inner.N()}
	s.inner = inner
	return s, nil
}

// Snapshot writes the sampler's full state to w.
func (s *SequenceWOR[T]) Snapshot(w io.Writer) error {
	return s.inner.(*core.SeqWOR[T]).Snapshot(w)
}

// RestoreSequenceWOR reads a SequenceWOR snapshot written by Snapshot.
func RestoreSequenceWOR[T any](r io.Reader) (*SequenceWOR[T], error) {
	inner, err := core.RestoreSeqWOR[T](r)
	if err != nil {
		return nil, err
	}
	s := &SequenceWOR[T]{n: inner.N()}
	s.inner = inner
	return s, nil
}

// encodeClock writes a timestamp adapter's monotone-clock guard, the only
// state the adapter holds besides its core sampler.
func encodeClock[T any](w *snap.Writer, s *tsSampler[T]) {
	w.I64(s.last)
	w.Bool(s.begun)
}

// restoreTimed reads a timestamp adapter's clock guard under kind, then
// its core sampler with restore, and returns the adapter state over it.
// Every time the core sees passes the guard first, so a core clock ahead
// of the guard is refused: the guard would admit an arrival the core
// panics on.
func restoreTimed[T any, S interface {
	stream.TimedSampler[T]
	Clock() (int64, bool)
}](r io.Reader, kind string, restore func(io.Reader) (S, error)) (tsSampler[T], S, error) {
	ts, err := snap.Restore(r, kind, func(r *snap.Reader) tsSampler[T] {
		return tsSampler[T]{last: r.I64(), begun: r.Bool()}
	})
	var inner S
	if err == nil {
		inner, err = restore(r)
		ts.timed, ts.inner = inner, inner
	}
	if err == nil {
		if now, started := inner.Clock(); started && (!ts.begun || now > ts.last) {
			err = snap.Errorf("slidingsample: core clock %d is ahead of the clock guard %d (begun %v)", now, ts.last, ts.begun)
		}
	}
	return ts, inner, err
}

// Snapshot writes the sampler's full state to w, the public adapter's
// monotone clock included.
func (s *TimestampWR[T]) Snapshot(w io.Writer) error {
	if err := snap.Save(w, kindPublicTSWR, &s.tsSampler, encodeClock[T]); err != nil {
		return err
	}
	return s.timed.(*core.TSWR[T]).Snapshot(w)
}

// RestoreTimestampWR reads a TimestampWR snapshot written by Snapshot.
func RestoreTimestampWR[T any](r io.Reader) (*TimestampWR[T], error) {
	ts, inner, err := restoreTimed[T](r, kindPublicTSWR, core.RestoreTSWR[T])
	if err != nil {
		return nil, err
	}
	return &TimestampWR[T]{tsSampler: ts, t0: inner.Horizon()}, nil
}

// Snapshot writes the sampler's full state to w, the public adapter's
// monotone clock included.
func (s *TimestampWOR[T]) Snapshot(w io.Writer) error {
	if err := snap.Save(w, kindPublicTSWOR, &s.tsSampler, encodeClock[T]); err != nil {
		return err
	}
	return s.timed.(*core.TSWOR[T]).Snapshot(w)
}

// RestoreTimestampWOR reads a TimestampWOR snapshot written by Snapshot.
func RestoreTimestampWOR[T any](r io.Reader) (*TimestampWOR[T], error) {
	ts, inner, err := restoreTimed[T](r, kindPublicTSWOR, core.RestoreTSWOR[T])
	if err != nil {
		return nil, err
	}
	return &TimestampWOR[T]{tsSampler: ts, t0: inner.Horizon()}, nil
}
