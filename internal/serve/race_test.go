//go:build race

package serve_test

// raceEnabled reports a -race build, whose sync.Pool drops values at random.
const raceEnabled = true
