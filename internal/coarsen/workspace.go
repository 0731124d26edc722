package coarsen

import (
	"math/rand"

	"mlpart/internal/hypergraph"
)

// scoreBlockSize is the number of permutation slots a multi-worker
// pool scores per synchronization. Output-invariant (any value yields
// the same clustering); chosen to amortize the fan-out barrier while
// keeping the speculation window — and thus the recompute rate —
// small. A one-wide pool scores one slot per block.
const scoreBlockSize = 512

// Workspace holds the scratch memory of Match: the visit permutation,
// the speculative-partner array of one score block, and one
// candidate-score accumulator and neighbor list per pool worker.
// Threading one Workspace through the Match calls of a multilevel run
// makes the matching sweep allocation-free in steady state — only the
// returned Clustering (which the hierarchy retains) is freshly
// allocated per call. The permutation and the accumulators are sized
// by the cell count, so the first (finest) call of a run sizes them
// for good; only a neighbor list may still lengthen on a coarse level
// whose dense clusters have more distinct neighbors.
//
// Ownership rule: a Workspace belongs to exactly one goroutine and one
// pipeline attempt at a time. It must never be stored in a package
// level variable or shared across concurrent attempts; the multi-start
// supervisor creates one per attempt. The zero value is ready to use.
type Workspace struct {
	perm []int32
	spec []int32 // speculative partner per slot of the current block

	// Per-worker scratch, indexed by the pool's range index, so no two
	// concurrent ranges share state. Every accumulator is all zeros
	// between scans (bestPartner resets what it touches), which is what
	// lets the calling goroutine reuse worker 0's pair for recomputes.
	connAcc   [][]float64
	neighbors [][]int32

	// cur is the state of the Match call in flight that score reads;
	// scoreFn is the score method value, bound once per workspace so
	// dispatching a block allocates nothing.
	cur     sweepState
	scoreFn func(worker, lo, hi int)
}

// sweepState is what the score range function needs of one Match call.
// Match clears it on return so a workspace never retains a hypergraph.
type sweepState struct {
	h    *hypergraph.Hypergraph
	cfg  Config
	c    *hypergraph.Clustering
	base int // permutation index of the current block's first slot
}

// prepare sizes the scratch for n cells and the given worker count,
// reusing prior capacity, and returns the score block size. Freshly
// grown accumulators are zero-filled by make, matching the invariant.
func (w *Workspace) prepare(n, workers int) int {
	block := 1
	if workers > 1 {
		block = scoreBlockSize
	}
	if cap(w.spec) < block {
		w.spec = make([]int32, block)
	}
	w.spec = w.spec[:block]
	for len(w.connAcc) < workers {
		w.connAcc = append(w.connAcc, nil)
		w.neighbors = append(w.neighbors, make([]int32, 0, 64))
	}
	for i := 0; i < workers; i++ {
		if cap(w.connAcc[i]) < n {
			w.connAcc[i] = make([]float64, n)
		}
		w.connAcc[i] = w.connAcc[i][:n]
	}
	if w.scoreFn == nil {
		w.scoreFn = w.score
	}
	return block
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
