package topology

import "sync/atomic"

// DistanceCache memoizes Topology.Distance lookups row by row: the first
// query from node a computes and publishes a's full distance row, and every
// later (a, *) lookup is an array read. A row costs one Distance call per
// node of the machine, so it pays off for callers that ask many distances
// from few sources: the cost model's single-candidate prices and the tree
// pricer. Elections price every candidate in one batch over node classes
// and ask the topology directly instead (internal/cost).
//
// Rows are published through atomic pointers, so a cache may be shared by
// every simulated rank of a machine — and by code running outside the
// simulator, such as benchmarks — without locking. Distance functions are
// pure, so a rare duplicated row computation is benign.
type DistanceCache struct {
	t    Topology
	rows []atomic.Pointer[[]int32]
}

// NewDistanceCache returns an empty cache over the topology.
func NewDistanceCache(t Topology) *DistanceCache {
	return &DistanceCache{t: t, rows: make([]atomic.Pointer[[]int32], t.Nodes())}
}

// Topology returns the cached topology.
func (c *DistanceCache) Topology() Topology { return c.t }

// Distance returns the hop count between two nodes, memoized. Distances are
// directional (dragonfly gateway selection hashes the ordered pair), so
// (a, b) and (b, a) occupy different rows.
func (c *DistanceCache) Distance(a, b int) int {
	row := c.rows[a].Load()
	if row == nil {
		row = c.fillRow(a)
	}
	return int((*row)[b])
}

func (c *DistanceCache) fillRow(a int) *[]int32 {
	n := c.t.Nodes()
	r := make([]int32, n)
	for b := 0; b < n; b++ {
		r[b] = int32(c.t.Distance(a, b))
	}
	c.rows[a].CompareAndSwap(nil, &r)
	return c.rows[a].Load()
}

// Rows returns how many distance rows have been materialized (for tests and
// capacity planning; each row holds Nodes() int32 entries).
func (c *DistanceCache) Rows() int {
	n := 0
	for i := range c.rows {
		if c.rows[i].Load() != nil {
			n++
		}
	}
	return n
}
