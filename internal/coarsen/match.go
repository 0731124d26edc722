// Package coarsen implements the Match coarsening procedure of
// Alpert/Huang/Kahng (Fig. 3): a connectivity-weighted matching that
// loosely follows the heavy-edge matching of Metis, with a matching
// ratio parameter R that controls the speed of coarsening and hence
// the number of levels in the multilevel hierarchy.
package coarsen

import (
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
	"mlpart/internal/telemetry"
)

// Config parameterizes Match.
type Config struct {
	// Ratio is the matching ratio R ∈ (0, 1]: the fraction of modules
	// to match before stopping. R = 1 seeks a maximal matching
	// (halving the instance, as in Chaco/Metis); R = 0.5 matches only
	// half the modules, slowing coarsening and deepening the
	// hierarchy. Default 1.0.
	Ratio float64
	// MaxNetSize: nets with more modules are ignored when computing
	// conn(v, w), to keep Match linear time. Default 10 (§III.A).
	MaxNetSize int
	// Exclude marks cells that must never be matched (they always
	// become singleton clusters). Used for pre-assigned modules such
	// as I/O pads (§III.C) so that fixed cells with different block
	// assignments are never merged. Optional; length must equal the
	// cell count if non-nil.
	Exclude []bool
	// SameBlockOnly, when non-nil, restricts matching to cell pairs
	// in the same block of the given partition — the "restricted
	// coarsening" of V-cycle (iterated multilevel) refinement, which
	// lets a hierarchy be rebuilt around an existing solution without
	// destroying it.
	SameBlockOnly *hypergraph.Partition
	// Stop, when non-nil, is polled periodically during the matching
	// sweep; returning true stops matching early. Every module not yet
	// matched becomes a singleton cluster (exactly the Fig. 3 handling
	// of leftover modules), so the clustering is always well-formed.
	Stop func() bool
	// Inject optionally arms deterministic fault injection at the
	// coarsen.match site; nil (the default) costs one pointer check.
	Inject *faultinject.Injector
	// Telemetry optionally records the pairing outcome of each Match
	// (matched pairs vs. singletons); nil costs one pointer check.
	Telemetry *telemetry.Collector
	// WS optionally supplies reusable scratch memory for the matching
	// sweep, making Match allocation-free in steady state (only the
	// returned Clustering is freshly allocated). A Workspace must not
	// be shared across goroutines; nil allocates scratch per call.
	WS *Workspace
	// Par is ignored: Match is one serial sweep.
	//
	// Deprecated: the intra-run pool is gone; the next benchmark change
	// removes this field.
	Par *intrapar.Pool
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.Ratio == 0 {
		c.Ratio = 1.0
	}
	if math.IsNaN(c.Ratio) || c.Ratio <= 0 || c.Ratio > 1 {
		return c, fmt.Errorf("coarsen: matching ratio %v outside (0,1]", c.Ratio)
	}
	if c.MaxNetSize == 0 {
		c.MaxNetSize = 10
	}
	if c.MaxNetSize < 2 {
		return c, fmt.Errorf("coarsen: MaxNetSize %d < 2", c.MaxNetSize)
	}
	return c, nil
}

// Conn computes the connectivity between modules v and w of §III.A:
//
//	conn(v, w) = 1/(A(v)+A(w)) · Σ_{e ∋ v,w, |e| ≤ maxNetSize} 1/(|e|−1)
//
// The 1/(|e|−1) term emphasizes nets with fewer modules; the area
// term prefers matching small modules to keep cluster sizes balanced.
// Exposed for tests and for alternative clustering strategies.
func Conn(h *hypergraph.Hypergraph, v, w int, maxNetSize int) float64 {
	var sum float64
	for _, e := range h.Nets(v) {
		size := h.NetSize(int(e))
		// size < 2 guards the 1/(|e|−1) term: a degenerate single-pin
		// net (possible on hypergraphs built outside the sanitizing
		// Builder) would otherwise divide by zero and poison the score
		// with +Inf/NaN.
		if size > maxNetSize || size < 2 {
			continue
		}
		for _, u := range h.Pins(int(e)) {
			if int(u) == w {
				sum += float64(h.NetWeight(int(e))) / float64(size-1)
				break
			}
		}
	}
	if sum == 0 {
		return 0
	}
	return sum / float64(h.Area(v)+h.Area(w))
}

// Match constructs a clustering P^k of h following Fig. 3. Modules
// are visited in a random permutation; each unmatched module v is
// paired with the unmatched neighbor w maximizing conn(v, w), forming
// the cluster {v, w}; if no unmatched neighbor exists, v becomes a
// singleton. Matching stops once the fraction of matched modules
// reaches cfg.Ratio, and every remaining unmatched module is assigned
// its own cluster.
//
// The returned Clustering is freshly allocated: Match is MatchInto a
// new Clustering.
func Match(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Clustering, error) {
	c := &hypergraph.Clustering{}
	if err := MatchInto(h, cfg, rng, c); err != nil {
		return nil, err
	}
	return c, nil
}

// MatchInto is Match writing the clustering into dst. dst's
// CellToCluster array is reused when it is long enough and otherwise
// replaced by one of exactly the cell count; every entry is rewritten,
// so whatever dst held before does not show. On error dst is left
// unchanged.
func MatchInto(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand, dst *hypergraph.Clustering) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}
	n := h.NumCells()
	if cfg.Exclude != nil && len(cfg.Exclude) != n {
		return fmt.Errorf("coarsen: Exclude has %d entries, hypergraph has %d cells", len(cfg.Exclude), n)
	}
	if cfg.SameBlockOnly != nil && len(cfg.SameBlockOnly.Part) != n {
		return fmt.Errorf("coarsen: SameBlockOnly partition has %d cells, hypergraph has %d", len(cfg.SameBlockOnly.Part), n)
	}
	act := faultinject.ActNone
	if cfg.Inject != nil {
		act = cfg.Inject.Fire(faultinject.SiteCoarsenMatch)
	}
	if act == faultinject.ActCancel {
		// Synthetic cancellation: behave exactly like a Stop hook that
		// fires before the first pairing — an all-singleton clustering.
		cfg.Stop = func() bool { return true }
	}
	c := dst
	c.CellToCluster = hypergraph.Resize(c.CellToCluster, n)
	c.NumClusters = 0
	for v := range c.CellToCluster {
		c.CellToCluster[v] = -1
	}
	if n == 0 {
		return nil
	}
	ws := cfg.grab()
	ws.perm = permInto(ws.perm, n, rng)
	// Grown accumulators come zeroed from make, and bestPartner leaves
	// every entry it touches zero again.
	ws.connAcc = hypergraph.Resize(ws.connAcc, n)

	k := int32(0)
	nMatch := 0
	for j, v := range ws.perm {
		if float64(nMatch)/float64(n) >= cfg.Ratio {
			break
		}
		if j&255 == 0 && cfg.Stop != nil && cfg.Stop() {
			break
		}
		if c.CellToCluster[v] >= 0 || (cfg.Exclude != nil && cfg.Exclude[v]) {
			continue
		}
		var best int32
		best, ws.neighbors = bestPartner(h, &cfg, c, int(v), ws.connAcc, ws.neighbors)
		c.CellToCluster[v] = k
		if best >= 0 {
			c.CellToCluster[best] = k
			nMatch += 2
		}
		k++
	}
	// Steps 8–10: every remaining unmatched module becomes a
	// singleton cluster.
	for v := 0; v < n; v++ {
		if c.CellToCluster[v] < 0 {
			c.CellToCluster[v] = k
			k++
		}
	}
	c.NumClusters = int(k)
	if act == faultinject.ActCorrupt {
		corruptClustering(c, cfg.Exclude)
	}
	// Every pair shrinks the cluster count by one, so the pairing
	// outcome is derivable from the totals in O(1).
	pairs := n - c.NumClusters
	cfg.Telemetry.RecordMatch(pairs, c.NumClusters-pairs)
	return nil
}

// bestPartner scans v's nets and returns the unmatched, non-excluded,
// same-block partner maximizing conn(v, ·) of §III.A — or -1 when v
// has no candidate. connAcc must be all-zeros on entry and is restored
// to all-zeros before returning (the Conn-array technique: entries are
// reset during the best-candidate scan). neighbors is caller scratch;
// the possibly-grown slice is returned.
//
// Equal scores tie-break to the lowest cell index: neighbors is
// ordered by net traversal, so without the explicit rule the winner
// would depend on pin order.
func bestPartner(h *hypergraph.Hypergraph, cfg *Config, c *hypergraph.Clustering, v int, connAcc []float64, neighbors []int32) (int32, []int32) {
	neighbors = neighbors[:0]
	av := h.Area(v)
	for _, e := range h.Nets(v) {
		size := h.NetSize(int(e))
		// size < 2: see Conn — a single-pin net must not reach the
		// 1/(|e|−1) weight below.
		if size > cfg.MaxNetSize || size < 2 {
			continue
		}
		wgt := float64(h.NetWeight(int(e))) / float64(size-1)
		for _, w := range h.Pins(int(e)) {
			if int(w) == v || c.CellToCluster[w] >= 0 ||
				(cfg.Exclude != nil && cfg.Exclude[w]) ||
				(cfg.SameBlockOnly != nil && cfg.SameBlockOnly.Part[v] != cfg.SameBlockOnly.Part[w]) {
				continue
			}
			if connAcc[w] == 0 {
				neighbors = append(neighbors, w)
			}
			connAcc[w] += wgt
		}
	}
	best := int32(-1)
	bestConn := 0.0
	for _, w := range neighbors {
		cw := connAcc[w] / float64(av+h.Area(int(w)))
		//mllint:ignore float-eq deliberate exact tie-break: equal scores arise from identical sums, and any near-miss just falls back to first-wins
		if cw > bestConn || (cw == bestConn && best >= 0 && w < best) {
			bestConn = cw
			best = w
		}
		connAcc[w] = 0 // reset as we go
	}
	return best, neighbors
}

// corruptClustering swaps the cluster assignments of the first two
// non-excluded cells in different clusters: the clustering stays
// well-formed (same clusters, same sizes) but quality degrades —
// the benign corruption mode of the coarsen.match fault site.
func corruptClustering(c *hypergraph.Clustering, exclude []bool) {
	v := -1
	for i := range c.CellToCluster {
		if exclude != nil && exclude[i] {
			continue
		}
		if v < 0 {
			v = i
			continue
		}
		if c.CellToCluster[i] != c.CellToCluster[v] {
			c.CellToCluster[v], c.CellToCluster[i] = c.CellToCluster[i], c.CellToCluster[v]
			return
		}
	}
}
