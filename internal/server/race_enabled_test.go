//go:build race

package server

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation changes allocation counts.
const raceEnabled = true
