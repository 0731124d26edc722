package coarsen

import "math/rand"

// Workspace holds the scratch memory of Match: the visit permutation,
// the candidate-score accumulator and the neighbor list. Threading one
// Workspace through the Match calls of a multilevel run makes the
// matching sweep allocation-free in steady state — only the returned
// Clustering (which the hierarchy retains) is freshly allocated per
// call. The permutation and the accumulator are sized by the cell
// count, so the first (finest) call of a run sizes them for good; only
// the neighbor list may still lengthen on a coarse level whose dense
// clusters have more distinct neighbors.
//
// Ownership rule: a Workspace belongs to exactly one goroutine and one
// pipeline attempt at a time. It must never be stored in a package
// level variable or shared across concurrent attempts; the multi-start
// supervisor creates one per attempt. The zero value is ready to use.
type Workspace struct {
	perm      []int32
	connAcc   []float64 // all zeros between bestPartner scans
	neighbors []int32
}

// permInto fills buf with the same permutation rand.Perm(n) would
// return, consuming exactly the same rng values (one Intn per element,
// replicating rand.Perm's insertion algorithm). Keeping the RNG stream
// identical is what makes the workspace path bit-identical to the
// allocating one. The entries are cell indices, so int32 holds them
// at half the footprint of rand.Perm's []int.
func permInto(buf []int32, n int, rng *rand.Rand) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		//mllint:ignore unchecked-narrow i < n = cell count, capped at MaxInt32 by Build/parse
		buf[j] = int32(i)
	}
	return buf
}

// grab returns the workspace to use for one Match call: the caller's,
// or a throwaway one so the non-workspace path shares the same code.
func (c Config) grab() *Workspace {
	if c.WS != nil {
		return c.WS
	}
	return &Workspace{}
}
