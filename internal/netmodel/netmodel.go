// Package netmodel expands netlist hypergraphs into weighted graphs
// for the analytic algorithms (quadratic placement, spectral
// bisection). A net with s pins becomes a clique with edge weight
// 1/(s−1) — the standard model whose Laplacian both GORDIAN [30] and
// spectral methods [18] operate on — while very large nets fall back
// to a chain model to keep the graph sparse.
package netmodel

import (
	"cmp"
	"slices"

	"mlpart/internal/hypergraph"
)

// Graph is a sparse undirected weighted graph in CSR form over the
// cells of a hypergraph.
type Graph struct {
	start  []int32
	adj    []int32
	weight []float64
	deg    []float64 // weighted degree per cell
}

// Build expands h into a Graph. Nets with at most cliqueLimit pins
// use the clique model; larger nets use the chain model. A
// cliqueLimit < 2 defaults to 16.
func Build(h *hypergraph.Hypergraph, cliqueLimit int) *Graph {
	if cliqueLimit < 2 {
		cliqueLimit = 16
	}
	n := h.NumCells()
	count := make([]int32, n+1)
	forEachEdge(h, cliqueLimit, func(a, b int32, w float64) {
		count[a+1]++
		count[b+1]++
	})
	g := &Graph{start: make([]int32, n+1), deg: make([]float64, n)}
	for v := 0; v < n; v++ {
		g.start[v+1] = g.start[v] + count[v+1]
	}
	total := g.start[n]
	g.adj = make([]int32, total)
	g.weight = make([]float64, total)
	fill := make([]int32, n)
	copy(fill, g.start[:n])
	forEachEdge(h, cliqueLimit, func(a, b int32, w float64) {
		g.adj[fill[a]] = b
		g.weight[fill[a]] = w
		fill[a]++
		g.adj[fill[b]] = a
		g.weight[fill[b]] = w
		fill[b]++
		g.deg[a] += w
		g.deg[b] += w
	})
	return g
}

// SortByKey stably orders ids by ascending key[id]: ties keep their
// order, so the result is one fixed permutation.
func SortByKey(ids []int32, key []float64) {
	slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
}

// SplitAtAreaMedian orders the cells of h by ascending key (SortByKey)
// and cuts the order where the cumulative area reaches half the total:
// it returns side 0 for the cells before the cut and 1 from the cut on
// — the single area-balanced split of a 1-D embedding that the
// spectral, GFM and GORDIAN-style baselines round with.
func SplitAtAreaMedian(h *hypergraph.Hypergraph, key []float64) []int32 {
	n := h.NumCells()
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	SortByKey(order, key)
	half := h.TotalArea() / 2
	side := make([]int32, n)
	var cum int64
	for _, v := range order {
		if cum >= half {
			side[v] = 1
		}
		cum += h.Area(int(v))
	}
	return side
}

// forEachEdge enumerates the undirected edges of the net model.
func forEachEdge(h *hypergraph.Hypergraph, cliqueLimit int, f func(a, b int32, w float64)) {
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		s := len(pins)
		w := 1.0 / float64(s-1)
		if s <= cliqueLimit {
			for i := 0; i < s; i++ {
				for j := i + 1; j < s; j++ {
					f(pins[i], pins[j], w)
				}
			}
		} else {
			for i := 0; i+1 < s; i++ {
				f(pins[i], pins[i+1], w)
			}
		}
	}
}

// NumCells returns the number of vertices.
func (g *Graph) NumCells() int { return len(g.deg) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the weighted degree of cell v.
func (g *Graph) Degree(v int) float64 { return g.deg[v] }

// Neighbors calls f for every neighbor (u, w) of v.
func (g *Graph) Neighbors(v int, f func(u int32, w float64)) {
	for k := g.start[v]; k < g.start[v+1]; k++ {
		f(g.adj[k], g.weight[k])
	}
}

// MaxDegree returns the maximum weighted degree (an upper bound on
// half the Laplacian spectral radius, by Gershgorin).
func (g *Graph) MaxDegree() float64 {
	maxd := 0.0
	for _, d := range g.deg {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// LaplacianMulAdd computes y = L·x where L = D − W is the graph
// Laplacian. x and y must have length NumCells.
func (g *Graph) LaplacianMulAdd(x, y []float64) {
	for v := 0; v < len(g.deg); v++ {
		sum := g.deg[v] * x[v]
		for k := g.start[v]; k < g.start[v+1]; k++ {
			sum -= g.weight[k] * x[g.adj[k]]
		}
		y[v] = sum
	}
}

// QuadraticCost returns x^T L x = Σ_{(u,v)∈E} w·(x_u − x_v)², the
// quadratic wirelength of a 1-D placement under the net model.
func (g *Graph) QuadraticCost(x []float64) float64 {
	var total float64
	for v := 0; v < len(g.deg); v++ {
		for k := g.start[v]; k < g.start[v+1]; k++ {
			u := g.adj[k]
			if int32(v) < u { // each undirected edge once
				d := x[v] - x[u]
				total += g.weight[k] * d * d
			}
		}
	}
	return total
}
