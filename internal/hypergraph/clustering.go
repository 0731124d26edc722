package hypergraph

import (
	"fmt"
	"sort"
)

// Clustering is a k-way clustering P^k = {C_1, ..., C_k} of the cells
// of a hypergraph: a partition of V into disjoint, covering clusters.
// CellToCluster[v] is the index in [0, NumClusters) of the cluster
// containing v.
type Clustering struct {
	CellToCluster []int32
	NumClusters   int
}

// NewIdentityClustering returns the trivial clustering in which every
// cell is its own singleton cluster.
func NewIdentityClustering(numCells int) *Clustering {
	c := &Clustering{CellToCluster: make([]int32, numCells), NumClusters: numCells}
	for v := range c.CellToCluster {
		c.CellToCluster[v] = int32(v)
	}
	return c
}

// Validate checks that the clustering is a well-formed partition of a
// hypergraph with numCells cells: every cell assigned, every cluster
// index in range, and every cluster non-empty.
func (c *Clustering) Validate(numCells int) error {
	var seen []bool
	return c.validate(numCells, &seen)
}

// validate is Validate with caller-owned scratch for the occupancy
// check: *seen is reallocated only when its capacity is below the
// cluster count, so a workspace that threads one buffer through a
// coarsening run allocates it once, at the finest level.
func (c *Clustering) validate(numCells int, seen *[]bool) error {
	if len(c.CellToCluster) != numCells {
		return fmt.Errorf("clustering: maps %d cells, hypergraph has %d", len(c.CellToCluster), numCells)
	}
	if c.NumClusters < 0 {
		return fmt.Errorf("clustering: negative cluster count %d", c.NumClusters)
	}
	if numCells > 0 && c.NumClusters == 0 {
		return fmt.Errorf("clustering: zero clusters for %d cells", numCells)
	}
	if cap(*seen) < c.NumClusters {
		*seen = make([]bool, c.NumClusters)
	}
	occupied := (*seen)[:c.NumClusters]
	clear(occupied)
	for v, k := range c.CellToCluster {
		if k < 0 || int(k) >= c.NumClusters {
			return fmt.Errorf("clustering: cell %d in cluster %d out of range [0,%d)", v, k, c.NumClusters)
		}
		occupied[k] = true
	}
	for k, ok := range occupied {
		if !ok {
			return fmt.Errorf("clustering: cluster %d is empty", k)
		}
	}
	return nil
}

// ClusterSizes returns the number of cells in each cluster.
func (c *Clustering) ClusterSizes() []int {
	sizes := make([]int, c.NumClusters)
	for _, k := range c.CellToCluster {
		sizes[k]++
	}
	return sizes
}

// Compose returns the clustering of the original cells obtained by
// first applying c (cells → mid-level clusters) and then d
// (mid-level clusters → top-level clusters). It is used to flatten a
// multilevel hierarchy into a single clustering of H_0.
func Compose(c, d *Clustering) (*Clustering, error) {
	if c.NumClusters != len(d.CellToCluster) {
		return nil, fmt.Errorf("clustering: compose mismatch: %d clusters vs %d cells", c.NumClusters, len(d.CellToCluster))
	}
	out := &Clustering{
		CellToCluster: make([]int32, len(c.CellToCluster)),
		NumClusters:   d.NumClusters,
	}
	for v, k := range c.CellToCluster {
		out.CellToCluster[v] = d.CellToCluster[k]
	}
	return out, nil
}

// MergeParallelNets returns h with its parallel nets merged: identical
// nets (same sorted pin list) are combined into one net whose weight
// is the sum of the originals'. Applied to an induced netlist it is
// the optional post-step of induction. The weighted cut of any
// partition is identical under either representation
// (TestInduceMergedCutEquivalence), but merging shrinks the coarse
// netlists, which speeds refinement — the standard hMETIS-era
// optimization that the paper's Definition 1 forgoes. The merge goes
// through a Builder: merged netlists are small and the sort dominates
// anyway. A netlist without nets is returned as is.
func MergeParallelNets(h *Hypergraph) (*Hypergraph, error) {
	if h.NumNets() == 0 {
		return h, nil
	}
	// Sort net indices by pin signature, then merge equal runs.
	order := make([]int32, h.NumNets())
	for e := range order {
		order[e] = int32(e)
	}
	sort.Slice(order, func(i, j int) bool {
		return comparePins(h.Pins(int(order[i])), h.Pins(int(order[j]))) < 0
	})
	b := NewBuilder(h.NumCells())
	for v := 0; v < h.NumCells(); v++ {
		b.SetArea(v, h.Area(v))
	}
	for i := 0; i < len(order); {
		j := i
		var w int64
		for ; j < len(order) && comparePins(h.Pins(int(order[i])), h.Pins(int(order[j]))) == 0; j++ {
			w += int64(h.NetWeight(int(order[j])))
		}
		if w > 1<<30 {
			w = 1 << 30 // saturate; beyond any practical multiplicity
		}
		b.AddWeightedNet32(int32(w), h.Pins(int(order[i])))
		i = j
	}
	return b.Build()
}

// comparePins lexicographically compares two sorted pin lists.
func comparePins(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
