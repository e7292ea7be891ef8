package window

import (
	"sync"
	"testing"
)

// TestBuffersConcurrentReads exercises the read-only paths of both exact
// materializers from many goroutines at once. The buffers are
// single-writer structures — Observe/AdvanceTo are not synchronized — but
// once ingest stops, Len/Contents/At/Clock are pure reads, and the serve
// layer relies on that: it reads a fullwindow substrate's footprint
// (Words, hence Len) under its read lock, from many goroutines at once.
// Run under -race via `make test-race`, this pins the contract: any hidden
// mutation in a read path becomes a detected race.
func TestBuffersConcurrentReads(t *testing.T) {
	sb := NewSeqBuffer[uint64](32)
	tb := NewTSBuffer[uint64](16)
	for i := uint64(0); i < 100; i++ {
		sb.Observe(elem(i, int64(i/3)))
		tb.Observe(elem(i, int64(i/3)))
	}
	tb.AdvanceTo(40)

	wantSeq := sb.Contents()
	wantTS := tb.Contents()
	wantNow, _ := tb.Clock()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				if got := sb.Len(); got != len(wantSeq) {
					t.Errorf("SeqBuffer.Len = %d, want %d", got, len(wantSeq))
					return
				}
				got := sb.Contents()
				for i := range got {
					if got[i] != wantSeq[i] {
						t.Errorf("SeqBuffer.Contents[%d] = %+v, want %+v", i, got[i], wantSeq[i])
						return
					}
					if sb.At(i) != wantSeq[i] {
						t.Errorf("SeqBuffer.At(%d) disagrees with Contents", i)
						return
					}
				}
				if now, _ := tb.Clock(); tb.Len() != len(wantTS) || now != wantNow {
					t.Errorf("TSBuffer read drifted: Len=%d Clock=%d, want %d, %d",
						tb.Len(), now, len(wantTS), wantNow)
					return
				}
				ts := tb.Contents()
				for i := range ts {
					if ts[i] != wantTS[i] {
						t.Errorf("TSBuffer.Contents[%d] = %+v, want %+v", i, ts[i], wantTS[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
