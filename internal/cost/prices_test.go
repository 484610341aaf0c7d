package cost

import (
	"math"
	"testing"

	"tapioca/internal/topology"
)

// referenceCost is what a member prices for its own candidacy under pl,
// one candidate at a time: CandidacyCost for the flat placements,
// TwoLevelCost for a two-level node leader and 0 for any other member.
func referenceCost(pl Placement, m *Model, members []Member, i int, ioBytes int64) float64 {
	if pl.Name() != "two-level" {
		return m.CandidacyCost(members, i, ioBytes)
	}
	for j := range i {
		if members[j].Node == members[i].Node {
			return 0
		}
	}
	return m.TwoLevelCost(members, i, ioBytes)
}

// TestBatchMatchesReference: every cost-driven placement reports, for
// every member, the exact bits the single-candidate reference prices, at
// the partition shapes the benchmark workloads elect over.
func TestBatchMatchesReference(t *testing.T) {
	mira128, mira256 := topology.MiraTorus(128), topology.MiraTorus(256)
	theta64 := topology.ThetaDragonfly(64, topology.RouteMinimal)
	table := func(n int, member func(i int) Member) []Member {
		members := make([]Member, n)
		for i := range members {
			members[i] = member(i)
		}
		return members
	}
	cases := []struct {
		name    string
		m       *Model
		members []Member
		ioBytes int64
	}{
		// ior-mira-rw: 128 ranks of 16 per node, 8 nodes, equal blocks.
		{"mira256/128x8", NewModel(mira256), table(128, func(i int) Member {
			return Member{Node: 136 + i/16, Bytes: 1 << 20}
		}), 128 << 20},
		// strided-tree-lossy's widest partition: every rank of Theta 64.
		{"theta64/512x64", NewModel(theta64), table(512, func(i int) Member {
			return Member{Node: i / 8, Bytes: int64(i%5+1) << 12}
		}), 1 << 30},
		{"mira256/zero-bytes", NewModel(mira256), table(96, func(i int) Member {
			return Member{Node: 64 + i/12, Bytes: int64(i%3) << 16}
		}), 0},
		{"theta64/all-zero", NewModel(theta64), table(24, func(i int) Member {
			return Member{Node: i / 4}
		}), 1 << 20},
		// Ties: one node, equal volumes; and members interleaved over
		// three nodes, so a node's members are not adjacent.
		{"mira128/one-node", NewModel(mira128), table(16, func(int) Member {
			return Member{Node: 5, Bytes: 4096}
		}), 1 << 16},
		{"theta64/interleaved", NewModel(theta64), table(30, func(i int) Member {
			return Member{Node: []int{3, 40, 17}[i%3], Bytes: 4096}
		}), 1 << 16},
		// Scattered members, one per node, on both machines.
		{"mira128/scattered", NewModel(mira128), table(32, func(i int) Member {
			return Member{Node: (i * 7) % 128, Bytes: int64(i+1) * 1000}
		}), 1 << 20},
		{"theta64/scattered", NewModel(theta64), table(32, func(i int) Member {
			return Member{Node: (i * 7) % 64, Bytes: int64(i+1) * 1000}
		}), 1 << 20},
		// A storage tier's C2 hook.
		{"mira128/tier", MachineModel(topology.NewDistanceCache(mira128), fixedTier{s: 0.25}), table(40, func(i int) Member {
			return Member{Node: i / 5, Bytes: int64(i+1) << 10}
		}), 1 << 20},
	}
	for _, tc := range cases {
		for _, pl := range []Placement{TopologyAware(), Worst(), TwoLevel()} {
			e := &Election{Model: tc.m, Members: tc.members, IOBytes: tc.ioBytes}
			pl.Elect(e)
			if len(e.Costs) != len(tc.members) {
				t.Fatalf("%s %s: %d costs for %d members", tc.name, pl.Name(), len(e.Costs), len(tc.members))
			}
			for i := range tc.members {
				want := referenceCost(pl, tc.m, tc.members, i, tc.ioBytes)
				if math.Float64bits(e.Costs[i]) != math.Float64bits(want) {
					t.Fatalf("%s %s member %d: batch %v (%#x), reference %v (%#x)", tc.name, pl.Name(), i,
						e.Costs[i], math.Float64bits(e.Costs[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// countingTopo counts the distance and I/O-node queries an election makes.
type countingTopo struct {
	topology.Topology
	distances, ioNodes int
}

func (c *countingTopo) Distance(a, b int) int {
	c.distances++
	return c.Topology.Distance(a, b)
}

func (c *countingTopo) IONodeOf(node int) int {
	c.ioNodes++
	return c.Topology.IONodeOf(node)
}

// TestElectionQueriesOncePerNodePair pins the batch pricer's mechanism: an
// election over n members on k nodes asks the topology for at most k²
// distances and k I/O nodes, whatever n, and fills no distance-cache row
// (a row costs one Distance call per node of the machine).
func TestElectionQueriesOncePerNodePair(t *testing.T) {
	const n, k = 128, 8
	for _, base := range []topology.Topology{
		topology.MiraTorus(256),
		topology.ThetaDragonfly(64, topology.RouteMinimal),
	} {
		members := make([]Member, n)
		for i := range members {
			// Interleaved: a node's members are not adjacent.
			members[i] = Member{Node: 3 + 5*(i%k), Bytes: int64(i%4) << 14}
		}
		for _, pl := range []Placement{TopologyAware(), Worst(), TwoLevel()} {
			topo := &countingTopo{Topology: base}
			dc := topology.NewDistanceCache(topo)
			pl.Elect(&Election{Model: MachineModel(dc, nil), Members: members, IOBytes: 1 << 20})
			if topo.distances > k*k || topo.ioNodes > k || dc.Rows() != 0 {
				t.Errorf("%s %s: %d Distance calls (max %d), %d IONodeOf calls (max %d), %d cache rows (want 0)",
					base.Name(), pl.Name(), topo.distances, k*k, topo.ioNodes, k, dc.Rows())
			}
		}
	}
}
