//go:build race

package serve

// raceEnabled reports whether the tests run under the race detector, whose
// shadow memory and sync.Pool drops distort heap readings.
const raceEnabled = true
