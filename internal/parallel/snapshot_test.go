package parallel

import (
	"bytes"
	"testing"

	"slidingsample/internal/xrand"
)

// dispatchClockCase is one row of TestRestoreRefusesDispatchClocks: a fed
// sampler's snapshot and restore, and a corruption that moves one
// dispatcher-side histogram off the dispatch clock.
type dispatchClockCase struct {
	snapshot func(*bytes.Buffer) error
	restore  func(*bytes.Buffer) error
	corrupt  func()
	close    func()
}

// closeRestored stops a successfully restored sampler's workers.
func closeRestored[S interface{ Close() }](s S, err error) error {
	if err == nil {
		s.Close()
	}
	return err
}

// TestRestoreRefusesDispatchClocks moves one dispatcher-side histogram off
// the dispatch clock — a state no stream produces — and requires the
// restore to refuse it. Each sampler restores cleanly untouched.
func TestRestoreRefusesDispatchClocks(t *testing.T) {
	weight := func(v int) float64 { return float64(v%5 + 1) }
	feed := func(s interface {
		Observe(int, int64)
		Barrier()
	}) {
		for i := 0; i < 50; i++ {
			s.Observe(i, int64(i/3))
		}
		s.Barrier()
	}
	cases := map[string]func() dispatchClockCase{
		"ShardedTSWOR/size counter ahead": func() dispatchClockCase {
			s := NewShardedTSWOR[int](xrand.New(1), 10, 3, 2, 0.1)
			feed(s)
			return dispatchClockCase{
				func(b *bytes.Buffer) error { return s.Snapshot(b) },
				func(b *bytes.Buffer) error { return closeRestored(RestoreShardedTSWOR[int](b)) },
				func() { s.ts.est.Observe(s.ts.now + 1) }, s.Close}
		},
		"ShardedWeightedTSWOR/size counter ahead": func() dispatchClockCase {
			s := NewShardedWeightedTSWOR(xrand.New(2), 10, 3, 2, 0.1, weight)
			feed(s)
			return dispatchClockCase{
				func(b *bytes.Buffer) error { return s.Snapshot(b) },
				func(b *bytes.Buffer) error { return closeRestored(RestoreShardedWeightedTSWOR(b, weight)) },
				func() { s.w.size.Observe(s.w.now + 1) }, s.Close}
		},
		"ShardedWeightedTSWR/shard weight oracle ahead": func() dispatchClockCase {
			s := NewShardedWeightedTSWR(xrand.New(3), 10, 3, 2, 0.1, weight)
			feed(s)
			return dispatchClockCase{
				func(b *bytes.Buffer) error { return s.Snapshot(b) },
				func(b *bytes.Buffer) error { return closeRestored(RestoreShardedWeightedTSWR(b, weight)) },
				func() { s.w.wests[1].Observe(s.w.now+1, 1) }, s.Close}
		},
		"ShardedWeightedSeqWOR/shard weight oracle at the arrival count": func() dispatchClockCase {
			s := NewShardedWeightedSeqWOR(xrand.New(4), 30, 3, 2, 0.1, weight)
			feed(s)
			return dispatchClockCase{
				func(b *bytes.Buffer) error { return s.Snapshot(b) },
				func(b *bytes.Buffer) error { return closeRestored(RestoreShardedWeightedSeqWOR(b, weight)) },
				func() { s.w.wests[0].Observe(int64(s.w.d.count), 1) }, s.Close}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			tc := build()
			defer tc.close()
			var buf bytes.Buffer
			if err := tc.snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tc.restore(&buf); err != nil {
				t.Fatalf("untouched snapshot refused: %v", err)
			}
			tc.corrupt()
			buf.Reset()
			if err := tc.snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if tc.restore(&buf) == nil {
				t.Fatal("unreachable dispatch state restored")
			}
		})
	}
}
