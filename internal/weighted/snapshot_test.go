package weighted

import (
	"bytes"
	"testing"

	"slidingsample/internal/xrand"
)

// TestRestoreRefusesSizeCounterAhead moves a timestamp sampler's embedded
// size counter past the sampler's clock — a state no stream produces —
// and requires the restore to refuse it; the untouched snapshot restores.
func TestRestoreRefusesSizeCounterAhead(t *testing.T) {
	weight := func(v int) float64 { return float64(v%5 + 1) }
	wor := NewTSWOR(xrand.New(1), 10, 3, 0.1, weight)
	wr := NewTSWR(xrand.New(2), 10, 3, 0.1, weight)
	for i := 0; i < 40; i++ {
		wor.Observe(i, int64(i/3))
		wr.Observe(i, int64(i/3))
	}
	restoreWOR := func() error {
		var buf bytes.Buffer
		if err := wor.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreTSWOR(&buf, weight)
		return err
	}
	restoreWR := func() error {
		var buf bytes.Buffer
		if err := wr.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreTSWR(&buf, weight)
		return err
	}
	if err := restoreWOR(); err != nil {
		t.Fatalf("TSWOR: %v", err)
	}
	if err := restoreWR(); err != nil {
		t.Fatalf("TSWR: %v", err)
	}
	wor.est.Observe(wor.now + 1)
	wr.est.Observe(wr.now + 1)
	if restoreWOR() == nil {
		t.Fatal("TSWOR with its size counter ahead restored")
	}
	if restoreWR() == nil {
		t.Fatal("TSWR with its size counter ahead restored")
	}
}
