// Package intrapar is what is left of the intra-run worker pool: an
// empty Pool type with New and Close, kept so that code written
// against the pool still compiles. The pipeline runs every operation
// serially and never reads a Pool.
//
// Deprecated: the pool is gone; the next benchmark change removes
// this package together with its last callers in mlbench.
package intrapar

// Pool is an empty stand-in for the deleted worker pool.
//
// Deprecated: nothing reads a Pool; the next benchmark change removes
// it.
type Pool struct{}

// New returns an empty Pool. It starts no goroutine.
//
// Deprecated: the next benchmark change removes it.
func New(int) *Pool { return &Pool{} }

// Close does nothing; it is safe on a nil Pool.
//
// Deprecated: the next benchmark change removes it.
func (*Pool) Close() {}
