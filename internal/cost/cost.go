// Package cost owns TAPIOCA's topology-aware cost model (paper §IV-B,
// Fig. 3) as a reusable layer: the aggregation cost C1 and the I/O cost C2
// that together price a rank's candidacy to become its partition's
// aggregator, plus the pluggable placement engine (Placement) that turns
// those prices into an election.
//
// The model prices moving data through the interconnect:
//
//	C1(A) = Σ_i  l·d(i, A) + ω(i)/B_fabric      (members ship to candidate A)
//	C2(A) = l·d(A, IO) + Ω/B_uplink             (A forwards to the I/O node)
//
// where l is the per-hop latency, d the hop distance, ω(i) member i's data
// volume and Ω the partition total. When the platform hides I/O-node
// locality (Lustre LNET on Theta), C2 is zero, exactly as the paper
// prescribes. Storage tiers that absorb writes faster than the generic
// uplink formula — a burst buffer — can refine C2 through the TierCost hook.
//
// Both TAPIOCA proper (internal/core) and the ROMIO-style baseline
// (internal/mpiio) consume this package, so a single implementation of the
// arithmetic serves every collective path. An election prices every member
// in one batch over the partition's node classes (prices.go): members on one
// node share every distance and their C2, so it asks the topology for
// k² distances and k I/O costs for k distinct nodes, whatever the member
// count. The single-candidate prices (CandidacyCost, TwoLevelCost, EdgeCost)
// read distances through topology.DistanceCache and are the reference the
// batch is tested against, term for term and bit for bit.
package cost

import (
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// Member is one partition member from the cost model's point of view: where
// it lives and how much data it contributes to the aggregation stream.
type Member struct {
	// Node is the member's compute node.
	Node int
	// Bytes is the member's declared data volume ω(i). Elections run before
	// any data movement, so consumers that cannot know volumes yet (MPI-IO
	// chooses aggregators at open time) use uniform weights instead.
	Bytes int64
}

// TierCost is implemented by storage tiers that can price the I/O phase
// better than the generic uplink formula — a burst buffer absorbs a flush at
// NVMe speed regardless of the backing file system. The interface is
// structural so storage need not import this package.
type TierCost interface {
	// TierIOCost returns the seconds to move bytes from node into the tier,
	// or ok=false when the tier has no opinion and the topology formula
	// should apply.
	TierIOCost(node int, bytes int64) (seconds float64, ok bool)
}

// TierOf extracts the TierCost hook from an arbitrary storage system, or nil.
func TierOf(sys any) TierCost {
	if t, ok := sys.(TierCost); ok {
		return t
	}
	return nil
}

// Model evaluates the paper's cost formulas over one topology.
type Model struct {
	topo     topology.Topology
	dist     *topology.DistanceCache
	latency  float64 // seconds per hop
	fabricBW float64
	uplinkBW float64
	tier     TierCost
}

// NewModel builds a cost model over the topology with a private distance
// cache and no tier hook.
func NewModel(topo topology.Topology) *Model {
	return newModel(topology.NewDistanceCache(topo), nil)
}

func newModel(dc *topology.DistanceCache, tier TierCost) *Model {
	topo := dc.Topology()
	return &Model{
		topo:     topo,
		dist:     dc,
		latency:  sim.ToSeconds(topo.Latency()),
		fabricBW: topo.Bandwidth(topology.LevelFabric),
		uplinkBW: topo.Bandwidth(topology.LevelIOUplink),
		tier:     tier,
	}
}

// Topology returns the model's topology.
func (m *Model) Topology() topology.Topology { return m.topo }

// hop is the price of one member's flow to a node d hops away: the paper's
// λ·d latency term plus xfer, the member's fabric transfer time (transfer).
// Every inter-node term — C1's, EdgeCost's and the batch pricer's — is this
// one expression. The explicit conversion rounds the latency product on
// its own, so no platform fuses it into the sum and the batch stays
// bit-identical to the single-candidate prices.
func (m *Model) hop(d int, xfer float64) float64 {
	return float64(m.latency*float64(d)) + xfer
}

// transfer is the fabric time of bytes, ω/B_fabric.
func (m *Model) transfer(bytes int64) float64 {
	return float64(bytes) / m.fabricBW
}

// localCopy is the time of a co-located (shared-memory) move of bytes.
func localCopy(bytes int64) float64 {
	return float64(bytes) / topology.LocalBandwidth
}

// EdgeCost prices one hop of an aggregation level: moving bytes from node a
// to node b. A co-located move (a == b) is a shared-memory copy at the local
// (memory) bandwidth with zero hops; an inter-node move pays the paper's
// λ·d(a,b) latency term plus the fabric-bandwidth transfer term. Every
// level-structured price in this package — flat C1, the two-level staged
// variant, and the tree pricer in internal/tree — routes through this one
// helper, so intra-node memory-bandwidth pricing cannot drift between them.
func (m *Model) EdgeCost(a, b int, bytes int64) float64 {
	if a == b {
		return localCopy(bytes)
	}
	return m.hop(m.dist.Distance(a, b), m.transfer(bytes))
}

// AggregationCost is C1: the cost of every member except the candidate
// itself shipping its declared data to the candidate's node (paper Fig. 3).
// candidate indexes members; members with no data are free. Co-located
// members ship across node memory, which the paper's d(i,A)=0 term makes
// free of latency; the transfer term stays on the fabric clock for fidelity
// with the paper's flat formula (the two-level and tree prices refine it).
func (m *Model) AggregationCost(members []Member, candidate int) float64 {
	candNode := members[candidate].Node
	var c1 float64
	for i, mb := range members {
		if i == candidate || mb.Bytes == 0 {
			continue
		}
		c1 += m.hop(m.dist.Distance(mb.Node, candNode), m.transfer(mb.Bytes))
	}
	return c1
}

// IOCost is C2: forwarding bytes from a node to its storage gateway. A tier
// hook (burst buffer) takes precedence; otherwise the topology's I/O-node
// map prices the uplink, and platforms that hide I/O-node locality cost
// zero, as in the paper.
func (m *Model) IOCost(node int, bytes int64) float64 {
	if m.tier != nil {
		if s, ok := m.tier.TierIOCost(node, bytes); ok {
			return s
		}
	}
	ion := m.topo.IONodeOf(node)
	if ion == topology.IONUnknown {
		return 0
	}
	d := float64(m.topo.DistanceToION(node, ion))
	return m.latency*d + float64(bytes)/m.uplinkBW
}

// CandidacyCost is the full objective TopoAware(A) = C1 + C2 for electing
// members[candidate] as the aggregator of a partition moving ioBytes.
func (m *Model) CandidacyCost(members []Member, candidate int, ioBytes int64) float64 {
	return m.AggregationCost(members, candidate) +
		m.IOCost(members[candidate].Node, ioBytes)
}

// nodeGroup is one node class: the members on one node, with the first of
// them as the class's (two-level) leader.
type nodeGroup struct {
	node   int
	leader int // member index of the node's first member
	bytes  int64
}

// groupByNode collapses members into per-node groups, preserving first-seen
// (member index) order so elections stay deterministic. class maps each
// member to its group's index.
func groupByNode(members []Member) (groups []nodeGroup, class []int) {
	idx := map[int]int{}
	class = make([]int, len(members))
	for i, mb := range members {
		g, ok := idx[mb.Node]
		if !ok {
			g = len(groups)
			idx[mb.Node] = g
			groups = append(groups, nodeGroup{node: mb.Node, leader: i})
		}
		groups[g].bytes += mb.Bytes
		class[i] = g
	}
	return groups, class
}

// TwoLevelCost prices electing members[candidate] under intra-node
// pre-aggregation (Kang et al.'s direction): every node's co-located members
// first merge their data into the node leader's staging buffer — a
// shared-memory copy at the local (memory) bandwidth, zero hops — then each
// remote node ships one aggregate message over the fabric, then C2. This is
// the paper's C1 with the per-member fabric terms collapsed to one per node:
// the merge term moves at topology.LocalBandwidth, not fabricBW (a memory
// copy is not fabric traffic), and a node whose leader is the only member
// merges nothing — with one rank per node every group is a singleton, every
// merge term vanishes, and TwoLevelCost degenerates to exactly C1. The candidate must be its
// node's leader for the price to be meaningful; callers restrict the
// electorate to leaders.
func (m *Model) TwoLevelCost(members []Member, candidate int, ioBytes int64) float64 {
	groups, _ := groupByNode(members)
	candNode := members[candidate].Node
	var c float64
	for _, g := range groups {
		if g.node == candNode {
			// The candidate's own node: co-located members copy into the
			// candidate's buffer across node memory; the candidate's own
			// bytes never move. No fabric message.
			c += m.EdgeCost(g.node, g.node, g.bytes-members[candidate].Bytes)
			continue
		}
		if g.bytes == 0 {
			// Nodes with no data send nothing: free, like empty members in C1.
			continue
		}
		// Remote node: members merge into their leader's staging buffer at
		// memory bandwidth (the leader's bytes are already there), then one
		// aggregated inter-node message carries the node total.
		c += m.EdgeCost(g.node, g.node, g.bytes-members[g.leader].Bytes)
		c += m.EdgeCost(g.node, candNode, g.bytes)
	}
	return c + m.IOCost(candNode, ioBytes)
}

// PartitionStart returns the first rank of partition part when n ranks are
// split into parts contiguous blocks by rank→partition map r*parts/n — the
// inverse boundary, ceil(part*n/parts). Both TAPIOCA's planner
// (internal/core) and the MPI-IO baseline's per-block elections
// (internal/mpiio) partition ranks through this one formula, so their
// aggregator blocks stay provably identical.
func PartitionStart(part, parts, n int) int {
	return (part*n + parts - 1) / parts
}

// MachineModel is the construction both I/O paths share: the machine-wide
// memoized distance cache (one per machine, so every rank and session reuses
// the same rows) plus the storage tier's C2 hook when the system provides
// one. Keeping the wiring here guarantees TAPIOCA proper and the MPI-IO
// baseline price candidacies identically.
func MachineModel(dc *topology.DistanceCache, sys any) *Model {
	return newModel(dc, TierOf(sys))
}
