// Shape search: enumerate the candidate families, price each over the
// session's partitions, greedily refine the fan-in, and keep the cheapest —
// the beam here is width one over a structured menu, which is enough because
// the families are few and the fan-in landscape is unimodal in practice
// (ingest shrinks as L/k + k, convex in k).
package tree

import "tapioca/internal/cost"

// Partition is one aggregation partition as the search sees it: its members
// in local-rank order and the elected aggregator's member index.
type Partition struct {
	Members []cost.Member
	Root    int
}

// SearchOptions configures a shape search.
type SearchOptions struct {
	Price PriceOptions
}

// Result is the search's pick.
type Result struct {
	Shape   Shape
	Seconds float64 // summed predicted aggregation seconds over partitions
	Levels  int     // max tree depth over partitions under the picked shape
	FanIn   int     // max achieved fan-in over partitions
}

// Search prices candidate shapes over the partitions and returns the best.
// Ties break toward the earlier menu entry, and the menu lists the
// degenerate shapes first — so on a fabric where trees buy nothing, the
// search answers "flat" and the session takes exactly today's path. The
// search is deterministic: same inputs, same pick.
func Search(m *cost.Model, parts []Partition, g Grouper, opt SearchOptions) Result {
	menu := []Shape{
		{Kind: Flat},
		{Kind: NodeStaged},
		{Kind: GroupTree},
		{Kind: Chain},
		{Kind: FanIn, K: 2},
		{Kind: FanIn, K: 4},
		{Kind: FanIn, K: 8},
		{Kind: FanIn, K: 16},
	}

	type prepped struct {
		Partition
		leaders []Leader
		root    int // the root's leader index
	}
	pp := make([]prepped, 0, len(parts))
	for _, p := range parts {
		if len(p.Members) == 0 {
			continue
		}
		leaders, starts := Leaders(p.Members)
		pp = append(pp, prepped{Partition: p, leaders: leaders, root: RootLeader(starts, p.Root)})
	}
	price := func(s Shape) Result {
		r := Result{Shape: s}
		for _, p := range pp {
			t := Build(s, p.leaders, p.root, g)
			r.Seconds += Price(m, t, p.leaders, p.Members, p.Root, opt.Price)
			if t.Levels > r.Levels {
				r.Levels = t.Levels
			}
			if t.MaxFanIn > r.FanIn {
				r.FanIn = t.FanIn()
			}
		}
		return r
	}

	best := price(menu[0])
	for _, s := range menu[1:] {
		if r := price(s); r.Seconds < best.Seconds {
			best = r
		}
	}
	if best.Shape.Kind == FanIn {
		// Greedy neighborhood walk around the winning seed: step K by ±1
		// while it strictly improves.
		for {
			improved := false
			for _, k := range []int{best.Shape.K - 1, best.Shape.K + 1} {
				if k < 2 {
					continue
				}
				if r := price(Shape{Kind: FanIn, K: k}); r.Seconds < best.Seconds {
					best, improved = r, true
				}
			}
			if !improved {
				break
			}
		}
	}
	return best
}

// FanIn returns the tree's achieved maximum fan-in (exported for reports).
func (t *Tree) FanIn() int { return t.MaxFanIn }
