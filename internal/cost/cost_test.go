package cost

import (
	"math"
	"testing"

	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// flatModel builds a model over a Flat topology with known constants:
// 1 GB/s links, 1 µs per hop, one I/O node one hop away.
func flatModel(n int) (*Model, *topology.Flat) {
	topo := topology.NewFlat(n)
	return NewModel(topo), topo
}

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))+1e-15
}

func TestAggregationCostFlat(t *testing.T) {
	m, topo := flatModel(4)
	lat := sim.ToSeconds(topo.Latency())
	bw := topo.Bandwidth(topology.LevelFabric)
	members := []Member{
		{Node: 0, Bytes: 1 << 20},
		{Node: 1, Bytes: 2 << 20},
		{Node: 2, Bytes: 0},       // empty members are free
		{Node: 3, Bytes: 3 << 20}, // candidate: excluded from C1
	}
	// Flat: every distinct pair is one hop.
	want := (lat + float64(1<<20)/bw) + (lat + float64(2<<20)/bw)
	if got := m.AggregationCost(members, 3); !almost(got, want) {
		t.Fatalf("C1 = %v, want %v", got, want)
	}
	// The candidate's own data never ships: a heavy candidate is cheap.
	if got := m.AggregationCost(members, 1); got >= m.AggregationCost(members, 3)+float64(2<<20)/bw {
		t.Fatalf("candidate's own volume leaked into C1: %v", got)
	}
}

func TestAggregationCostSameNodeMembers(t *testing.T) {
	m, topo := flatModel(2)
	bw := topo.Bandwidth(topology.LevelFabric)
	// Two ranks on the candidate's node: zero hops, but the copy still
	// costs bandwidth (seed behavior: latency·0 + ω/B).
	members := []Member{
		{Node: 0, Bytes: 1000},
		{Node: 0, Bytes: 2000},
	}
	want := 1000 / bw
	if got := m.AggregationCost(members, 1); !almost(got, want) {
		t.Fatalf("same-node C1 = %v, want %v", got, want)
	}
}

func TestIOCostFlatAndHidden(t *testing.T) {
	m, topo := flatModel(4)
	lat := sim.ToSeconds(topo.Latency())
	up := topo.Bandwidth(topology.LevelIOUplink)
	want := lat + float64(8<<20)/up // DistanceToION is 1 on Flat
	if got := m.IOCost(2, 8<<20); !almost(got, want) {
		t.Fatalf("C2 = %v, want %v", got, want)
	}
	// Platforms that hide I/O-node locality cost zero, as in the paper.
	theta := topology.ThetaDragonfly(128, topology.RouteMinimal)
	mt := NewModel(theta)
	if got := mt.IOCost(5, 8<<20); got != 0 {
		t.Fatalf("hidden-locality C2 = %v, want 0", got)
	}
}

type fixedTier struct{ s float64 }

func (f fixedTier) TierIOCost(node int, bytes int64) (float64, bool) { return f.s, true }

func TestIOCostTierHook(t *testing.T) {
	m := MachineModel(topology.NewDistanceCache(topology.NewFlat(4)), fixedTier{s: 0.25})
	if got := m.IOCost(0, 1<<30); got != 0.25 {
		t.Fatalf("tier C2 = %v, want 0.25", got)
	}
	if TierOf(fixedTier{}) == nil {
		t.Fatal("TierOf missed a structural implementation")
	}
	if TierOf(42) != nil {
		t.Fatal("TierOf invented a tier")
	}
}

func TestCandidacyCostComposes(t *testing.T) {
	m, _ := flatModel(4)
	members := []Member{{Node: 0, Bytes: 100}, {Node: 1, Bytes: 200}}
	want := m.AggregationCost(members, 0) + m.IOCost(0, 300)
	if got := m.CandidacyCost(members, 0, 300); !almost(got, want) {
		t.Fatalf("C1+C2 = %v, want %v", got, want)
	}
}

func TestTwoLevelCostCollapsesNodes(t *testing.T) {
	m, topo := flatModel(4)
	lat := sim.ToSeconds(topo.Latency())
	bw := topo.Bandwidth(topology.LevelFabric)
	// Two nodes, two members each. Candidate = member 0 (leader of node 0).
	members := []Member{
		{Node: 0, Bytes: 100},
		{Node: 0, Bytes: 300},
		{Node: 1, Bytes: 500},
		{Node: 1, Bytes: 700},
	}
	// Intra: member 1 merges 300 bytes into the candidate across node
	// memory. Remote: node 1's non-leader merges 700 bytes into its leader
	// at memory bandwidth, then ONE fabric message carries the node's 1200
	// bytes. Staging copies move at the local (memory) bandwidth, never the
	// fabric rate.
	want := 300/topology.LocalBandwidth + 700/topology.LocalBandwidth + (lat + 1200/bw) + m.IOCost(0, 0)
	if got := m.TwoLevelCost(members, 0, 0); !almost(got, want) {
		t.Fatalf("two-level cost = %v, want %v", got, want)
	}
	// The flat election must therefore prefer two-level over per-member
	// flows when latency dominates: 1 remote message vs 2 (C2 identical).
	perMember := m.CandidacyCost(members, 0, 0)
	if got := m.TwoLevelCost(members, 0, 0); got >= perMember {
		t.Fatalf("two-level (%v) not cheaper than per-member (%v) under message latency", got, perMember)
	}
}

// TestTwoLevelCostDegeneratesAtOneRankPerNode pins the rpn=1 contract:
// with one member per node every node group is a singleton, every staging
// merge term vanishes (no member has co-located data to copy), and the
// two-level price collapses to exactly the flat C1+C2 — staging is a no-op,
// not a wasted copy.
func TestTwoLevelCostDegeneratesAtOneRankPerNode(t *testing.T) {
	m, _ := flatModel(8)
	members := make([]Member, 8)
	for i := range members {
		members[i] = Member{Node: i, Bytes: int64(i+1) * 1000}
	}
	for cand := range members {
		flat := m.CandidacyCost(members, cand, 1<<20)
		two := m.TwoLevelCost(members, cand, 1<<20)
		if !almost(two, flat) {
			t.Fatalf("candidate %d: two-level %v != flat %v at one rank per node", cand, two, flat)
		}
	}
}
