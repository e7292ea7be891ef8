package slab

import (
	"sync"
	"testing"
	"unsafe"
)

func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && unsafe.SliceData(a[:cap(a)]) == unsafe.SliceData(b[:cap(b)])
}

// reuseTries is how many Put→Get round trips a reuse assertion gets.
// Without -race it is one: the pool must hand back the buffer just put.
// Under -race sync.Pool drops a quarter of all Puts on purpose, so a
// round trip that misses is retried, each time with the payload refilled;
// 64 misses in a row, (1/4)^64, would still fail the test.
func reuseTries() int {
	if raceEnabled {
		return 64
	}
	return 1
}

func TestGetReusesPutBuffer(t *testing.T) {
	p := NewSlicePool[int](64)
	a := p.Get(10)
	var b []int
	for try := 0; try < reuseTries() && !sameArray(a, b); try++ {
		for i := range a {
			a[i] = i + 1
		}
		p.Put(a)
		b = p.Get(8)
	}
	if !sameArray(a, b) {
		t.Fatalf("Get did not reuse the recycled backing array")
	}
	if len(b) != 8 {
		t.Fatalf("Get(8) returned len %d", len(b))
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled buffer not cleared at %d: %d", i, v)
		}
	}
}

func TestPutClearsFullCapacity(t *testing.T) {
	// Payloads hiding in the slack beyond len must be cleared too — the
	// pool must not pin strings from evicted batches.
	p := NewSlicePool[string](64)
	a := p.Get(10)
	var b []string
	for try := 0; try < reuseTries() && !sameArray(a, b); try++ {
		for i := range a {
			a[i] = "payload"
		}
		p.Put(a[:3]) // Put sees len 3, cap 10: all ten slots must be wiped
		b = p.Get(10)
	}
	if !sameArray(a, b) {
		t.Fatalf("expected reuse of the recycled array")
	}
	for i, v := range b {
		if v != "" {
			t.Fatalf("slack slot %d not cleared: %q", i, v)
		}
	}
}

func TestOversizedBufferDropped(t *testing.T) {
	p := NewSlicePool[int](16)
	a := p.Get(32) // beyond maxCap: allocated fresh, must not recycle
	p.Put(a)
	b := p.Get(32)
	if sameArray(a, b) {
		t.Fatalf("pool recycled a buffer over maxCap")
	}
	p.Put(nil) // zero-cap: silently dropped
}

func TestTooSmallRecycledBufferDropped(t *testing.T) {
	p := NewSlicePool[int](64)
	small := p.Get(4)
	p.Put(small)
	big := p.Get(32)
	if sameArray(small, big) {
		t.Fatalf("Get returned a buffer smaller than requested")
	}
	// The small buffer was consumed from the pool (and dropped); the big
	// one recycles normally.
	var again []int
	for try := 0; try < reuseTries() && !sameArray(big, again); try++ {
		p.Put(big)
		again = p.Get(32)
	}
	if !sameArray(big, again) {
		t.Fatalf("expected the big buffer back")
	}
}

func TestNewSlicePoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewSlicePool(0) did not panic")
		}
	}()
	NewSlicePool[int](0)
}

// TestConcurrentGetPut hammers the pool from many goroutines under -race:
// the entry boxes migrate between the two internal pools and must never
// carry a buffer visible to two holders at once.
func TestConcurrentGetPut(t *testing.T) {
	p := NewSlicePool[uint64](256)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 1 + (g+i)%200
				s := p.Get(n)
				for j := range s {
					if s[j] != 0 {
						t.Errorf("dirty recycled buffer (slot %d)", j)
						return
					}
					s[j] = uint64(g)<<32 | uint64(i)
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkSlicePoolGetPut(b *testing.B) {
	p := NewSlicePool[uint64](4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := p.Get(100)
		s[0] = uint64(i)
		p.Put(s)
	}
}
