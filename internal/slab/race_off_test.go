//go:build !race

package slab

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops a quarter of all Puts on purpose.
const raceEnabled = false
