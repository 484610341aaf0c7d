// Tree pricing: the §IV-B cost model generalized from one reduction level to
// many. Every byte movement is priced through cost.Model.EdgeCost — the same
// helper TwoLevelCost uses — so intra-node memory-bandwidth pricing cannot
// drift between the two-level price and the tree price (the shared-helper
// contract pinned by TestPriceDegeneracy).
package tree

import "tapioca/internal/cost"

// PriceOptions extends the pure bandwidth/latency model with the terms that
// make interior levels worth their overhead.
type PriceOptions struct {
	// PerMessageSeconds is the expected extra receiver occupancy per
	// incoming fabric message — on a lossy fabric, loss-rate × retransmit
	// penalty. Messages into one receiver serialize; receivers of one level
	// progress in parallel. Zero (the clean-fabric default) reproduces the
	// paper's pure model, under which flat shapes win and the search
	// degenerates accordingly.
	PerMessageSeconds float64
	// FenceSeconds is the synchronization cost of one interior level: every
	// extra tree level costs one more window fence across the partition's
	// ranks. Zero undercounts fences and over-rewards deep shapes; callers
	// should pass the same 2·log₂(P+1)·α the pipeline predictor charges.
	FenceSeconds float64
}

// Price returns the aggregation seconds of one partition's stream under the
// concrete tree t. members are the partition's members in local-rank order,
// rootMember the elected aggregator's index among them; leaders must be
// Leaders(members) and t built over them. The I/O term C2 is excluded, as in
// the tuner's aggregationSeconds: the flush estimator prices storage.
//
// The degenerate shapes do not re-derive their price: see PriceDegenerate.
func Price(m *cost.Model, t *Tree, leaders []Leader, members []cost.Member, rootMember int, opt PriceOptions) float64 {
	if t.Shape.Degenerate() {
		return PriceDegenerate(m, t.Shape.Kind, members, rootMember, opt)
	}

	rootNode := leaders[t.Root].Node
	var secs float64

	// Base level: co-located members merge into their node leader's staging
	// buffer at memory bandwidth — the same merge terms TwoLevelCost books.
	// The root's own node group does not stage (its members put straight
	// into the aggregation window, priced as the root-level local edges
	// below), matching the data plane's staging exclusion (core.buildStaging).
	starts := memberStarts(leaders, members)
	for li, l := range leaders {
		if l.Node == rootNode || l.Bytes == 0 {
			continue
		}
		leaderBytes := members[starts[li]].Bytes
		secs += m.EdgeCost(l.Node, l.Node, l.Bytes-leaderBytes)
	}
	// Root-group members ship individually to the root across node memory.
	for i := starts[t.Root]; i < starts[t.Root+1]; i++ {
		if i != rootMember && members[i].Bytes > 0 {
			secs += m.EdgeCost(rootNode, rootNode, members[i].Bytes)
		}
	}

	// Interior levels, deepest first: each level's wall time is the slowest
	// receiver's serialized ingest (its incoming messages queue on its NIC;
	// distinct receivers progress in parallel), and each level past the
	// first costs one extra fence.
	subtree := t.subtreeBytes(leaders)
	for level := t.Levels; level >= 1; level-- {
		ingest := map[int]float64{} // receiving vertex → serialized seconds
		for v, p := range t.Parent {
			if p < 0 || t.Depth[v] != level || subtree[v] == 0 {
				continue
			}
			ingest[p] += opt.PerMessageSeconds + m.EdgeCost(leaders[v].Node, leaders[p].Node, subtree[v])
		}
		var slowest float64
		for _, s := range ingest {
			if s > slowest {
				slowest = s
			}
		}
		secs += slowest
		if level > 1 {
			secs += opt.FenceSeconds
		}
	}
	return secs
}

// subtreeBytes returns, per vertex, the data volume its subtree forwards.
func (t *Tree) subtreeBytes(leaders []Leader) []int64 {
	out := make([]int64, len(leaders))
	for v, l := range leaders {
		for a := v; a >= 0; a = t.Parent[a] {
			out[a] += l.Bytes
		}
	}
	return out
}

// memberStarts recovers the leader→member boundaries for a leader list built
// by Leaders (run-length over consecutive equal nodes).
func memberStarts(leaders []Leader, members []cost.Member) []int {
	starts := make([]int, 0, len(leaders)+1)
	for i, mb := range members {
		if i == 0 || mb.Node != members[i-1].Node {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(members))
	if len(starts) != len(leaders)+1 {
		panic("tree: leader list does not match member list")
	}
	return starts
}

// PriceDegenerate prices a flat or node-staged shape from the members alone,
// with no tree to build: Flat delegates to cost.Model.AggregationCost and
// NodeStaged to cost.Model.TwoLevelCost, so a degenerate shape prices
// *identically* to the path it collapses into (plus the per-message term,
// which is zero in the defaults those paths use).
func PriceDegenerate(m *cost.Model, k Kind, members []cost.Member, rootMember int, opt PriceOptions) float64 {
	if k == Flat {
		return m.AggregationCost(members, rootMember) +
			opt.PerMessageSeconds*float64(flatMessages(members, rootMember))
	}
	return m.TwoLevelCost(members, rootMember, 0) +
		opt.PerMessageSeconds*float64(stagedMessages(members, rootMember))
}

// flatMessages counts the fabric messages a flat exchange lands on the root:
// one per active member on a remote node (intra-node puts never touch the
// fabric, so loss cannot stretch them).
func flatMessages(members []cost.Member, rootMember int) int {
	rootNode := members[rootMember].Node
	n := 0
	for i, mb := range members {
		if i != rootMember && mb.Bytes > 0 && mb.Node != rootNode {
			n++
		}
	}
	return n
}

// stagedMessages counts the node-staged exchange's fabric messages: one
// coalesced message per active remote node group (a run of consecutive
// members on one node, as Leaders groups them).
func stagedMessages(members []cost.Member, rootMember int) int {
	rootNode := members[rootMember].Node
	n := 0
	var run int64
	for i, mb := range members {
		run += mb.Bytes
		if i+1 < len(members) && members[i+1].Node == mb.Node {
			continue
		}
		if run > 0 && mb.Node != rootNode {
			n++
		}
		run = 0
	}
	return n
}
