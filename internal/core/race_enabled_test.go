//go:build race

package core

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation changes allocation counts and makes sync.Pool
// drop a random share of its Puts.
const raceEnabled = true
