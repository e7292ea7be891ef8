package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"slidingsample/internal/stream"
	"slidingsample/internal/xrand"
)

// TestDecodeRefusesUnreachableStates corrupts a live TSWR or TSWOR before
// Snapshot, one rule per row. Each row is a state no stream reaches. Some
// make the next Observe or query at the restored clock panic (a
// decomposition that does not end where the next arrival lands, an
// instance clock ahead of its TSWOR, a ring element in the future, an
// emptied instance); the others answer from a broken invariant. The
// restore must refuse every row; the untouched pair restores.
func TestDecodeRefusesUnreachableStates(t *testing.T) {
	const t0, k = 50, 3
	// ring returns the TSWOR ring element i places from the newest.
	ring := func(s *TSWOR[uint64], i int) *stream.Element[uint64] {
		return &s.tail[(s.tailPos-1-i+2*s.k)%s.k]
	}
	cases := []struct {
		name    string
		corrupt func(wr *TSWR[uint64], wor *TSWOR[uint64])
		want    string
	}{
		{"untouched", func(*TSWR[uint64], *TSWOR[uint64]) {}, ""},
		{"TSWR count past its decomposition", func(wr *TSWR[uint64], _ *TSWOR[uint64]) { wr.count += 5 }, "core.TSWR decomposition ends at 30, count 35"},
		{"instance with k 2", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			wor.insts[1] = NewTSWR[uint64](xrand.New(3), t0, 2)
		}, "instance 1 with t0 50, k 2"},
		{"instance with another t0", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { wor.insts[1].t0++ }, "instance 1 with t0 51, k 1"},
		{"instance clock ahead", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { wor.insts[0].now += 100 }, "instance 0 clock 129 is ahead of its clock 29 (started true)"},
		{"instance started under an unstarted TSWOR", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			*wor = *NewTSWOR[uint64](xrand.New(4), t0, k)
			wor.insts[0].started = true
		}, "instance 0 clock 0 is ahead of its clock 0 (started false)"},
		{"instance decomposition off by one", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			wor.insts[1], wor.insts[2] = wor.insts[2], wor.insts[1]
		}, "instance 1 last bucket [27,28) is not ring element 28"},
		{"instance fed before its delay", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			*wor = *NewTSWOR[uint64](xrand.New(5), t0, k)
			wor.Observe(0, 0)
			wor.insts[2].observeAt(wor.tail[0], 0)
		}, "instance 2 is not empty at count 1"},
		{"instance emptied while its last arrival is active", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			wor.insts[2].straddle, wor.insts[2].d.list = nil, nil
		}, "instance 2 empty while its last arrival is active"},
		{"instance last bucket older than its ring element", func(_ *TSWR[uint64], wor *TSWOR[uint64]) {
			wor.insts[1].d.Last().First.TS = wor.now - t0
		}, "instance 1 last bucket [28,29) is not ring element 28"},
		{"ring shorter than min(count, k)", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { wor.tailLen-- }, "ring holds 2, count 30"},
		{"ring indices not consecutive", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { ring(wor, 0).Index-- }, "ring index 28, want 29"},
		{"ring timestamps decrease", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { ring(wor, k-1).TS = wor.now }, "ring timestamp 28 out of order"},
		{"ring timestamp past the clock", func(_ *TSWR[uint64], wor *TSWOR[uint64]) { ring(wor, 0).TS = wor.now + 1 }, "ring timestamp 30 out of order or past clock 29"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wr := NewTSWR[uint64](xrand.New(1), t0, 2)
			wor := NewTSWOR[uint64](xrand.New(2), t0, k)
			for i := 0; i < 30; i++ {
				wr.Observe(uint64(i), int64(i))
				wor.Observe(uint64(i), int64(i))
			}
			c.corrupt(wr, wor)
			var bwr, bwor bytes.Buffer
			if err := errors.Join(wr.Snapshot(&bwr), wor.Snapshot(&bwor)); err != nil {
				t.Fatal(err)
			}
			_, errWR := RestoreTSWR[uint64](&bwr)
			_, errWOR := RestoreTSWOR[uint64](&bwor)
			err := errors.Join(errWR, errWOR)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("untouched state refused: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("restore error %v, want one containing %q", err, c.want)
			}
		})
	}
}
