//go:build race

package hypergraph_test

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation changes allocation counts.
const raceEnabled = true
