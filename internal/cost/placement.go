package cost

import "sort"

// Election is one partition's aggregator election. The caller holds the
// whole member table and evaluates every candidate itself; placements being
// deterministic, every caller lands on the same winner, the member the
// paper's Allreduce MINLOC over per-member candidacy costs (§IV-B) elects.
type Election struct {
	// Model prices candidacies. Required by cost-driven placements.
	Model *Model
	// Members lists the partition's members in partition-rank order.
	Members []Member
	// IOBytes is the partition's total volume Ω, shipped by the winner in
	// the I/O phase (C2). Zero when unknown.
	IOBytes int64
	// Partition is the partition's index (seeds deterministic randomness).
	Partition int

	// Costs is Elect's output: a cost-driven placement sets it to every
	// member's candidacy cost (0 for a member it does not price), the values
	// its MINLOC or MAXLOC reduction runs over. Heuristics that reduce no
	// cost leave it nil.
	Costs []float64
}

// Placement elects one aggregator per partition. Implementations must be
// deterministic: the same Election data elects the same member on every
// caller. A cost-driven implementation reports the costs it reduced in
// Election.Costs.
type Placement interface {
	// Name identifies the strategy (reports, figure labels).
	Name() string
	// Elect returns the winning member's index.
	Elect(e *Election) int
}

// SetElection is the whole-communicator view used by SetStrategy: MPI-IO's
// classic heuristics pick a global aggregator set rather than running
// per-partition elections.
type SetElection struct {
	// Nodes maps each comm rank to its compute node.
	Nodes []int
	// Want is the number of aggregators to select.
	Want int
	// Bridge reports whether a node is an I/O bridge node (BG/Q); nil when
	// the platform has none.
	Bridge func(node int) bool
}

// SetStrategy is an optional Placement extension: strategies that choose the
// full aggregator set at once. Consumers (internal/mpiio) prefer SelectSet
// when available and fall back to partitioned Elect calls otherwise.
type SetStrategy interface {
	// SelectSet returns Want comm ranks in ascending order.
	SelectSet(e *SetElection) []int
}

// argBest prices every member's C1+C2 candidacy into e.Costs in one batch
// and returns the extreme-cost member (ties break toward the lowest index,
// as MINLOC and MAXLOC do). worst flips the objective.
func argBest(e *Election, worst bool) int {
	e.Costs = e.Model.candidacies(e.Members, e.IOBytes)
	best := 0
	for i, c := range e.Costs {
		if (!worst && c < e.Costs[best]) || (worst && c > e.Costs[best]) {
			best = i
		}
	}
	return best
}

// TopologyAware returns the paper's cost-model election: the member with the
// minimum C1+C2 candidacy cost wins (§IV-B, Allreduce MINLOC).
func TopologyAware() Placement { return topologyAware{} }

type topologyAware struct{}

func (topologyAware) Name() string { return "topology-aware" }

func (topologyAware) Elect(e *Election) int { return argBest(e, false) }

// TwoLevel returns the intra-node pre-aggregation variant: members first
// merge within their node, then one aggregate flow per node competes in the
// inter-node election, so only each node's first member (its leader) is
// electable and priced. This follows Kang et al.'s intra-node request
// aggregation direction on top of the paper's cost model.
func TwoLevel() Placement { return twoLevel{} }

type twoLevel struct{}

func (twoLevel) Name() string { return "two-level" }

func (twoLevel) Elect(e *Election) int {
	var leaders []int
	e.Costs, leaders = e.Model.twoLevelCandidacies(e.Members, e.IOBytes)
	best := leaders[0]
	for _, l := range leaders {
		if e.Costs[l] < e.Costs[best] {
			best = l
		}
	}
	return best
}

// Worst returns the adversarial ablation bound: the maximum-cost candidate
// wins (Allreduce MAXLOC), quantifying how much placement can possibly
// matter.
func Worst() Placement { return worst{} }

type worst struct{}

func (worst) Name() string { return "worst" }

func (worst) Elect(e *Election) int { return argBest(e, true) }

// Random returns a deterministic pseudo-random pick seeded by the partition
// index — the statistically neutral baseline.
func Random() Placement { return random{} }

type random struct{}

func (random) Name() string { return "random" }

func (random) Elect(e *Election) int {
	h := uint64(e.Partition+1) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	return int(h % uint64(len(e.Members)))
}

// firstMember is the shared Elect body of the heuristics that run no cost
// election per partition: the partition's first member wins.
type firstMember struct{}

func (firstMember) Elect(*Election) int { return 0 }

// RankOrder returns the naive baseline. Per partition it elects the first
// member; as an MPI-IO set strategy it picks comm ranks 0..Want-1 regardless
// of node — the stacking pathology the paper criticizes.
func RankOrder() Placement { return rankOrder{} }

type rankOrder struct{ firstMember }

func (rankOrder) Name() string { return "rank-order" }

func (rankOrder) SelectSet(e *SetElection) []int {
	out := make([]int, e.Want)
	for i := range out {
		out[i] = i
	}
	return out
}

// nodeRanks returns, per node in ascending node order, the ranks hosted
// there (ascending), for the spread heuristics.
func nodeRanks(nodes []int) (order []int, byNode map[int][]int) {
	byNode = map[int][]int{}
	for r, nd := range nodes {
		if len(byNode[nd]) == 0 {
			order = append(order, nd)
		}
		byNode[nd] = append(byNode[nd], r)
	}
	sort.Ints(order)
	return order, byNode
}

// NodeSpread returns the common MPICH/Cray default: one rank per node,
// strided evenly across the allocation. Per-partition elections fall back to
// the first member.
func NodeSpread() Placement { return nodeSpread{} }

type nodeSpread struct{ firstMember }

func (nodeSpread) Name() string { return "node-spread" }

func (nodeSpread) SelectSet(e *SetElection) []int {
	order, byNode := nodeRanks(e.Nodes)
	var out []int
	if e.Want <= len(order) {
		// Evenly strided across the allocation, one rank per chosen node —
		// what tuned ROMIO configurations do.
		for i := 0; i < e.Want; i++ {
			nd := order[i*len(order)/e.Want]
			out = append(out, byNode[nd][0])
		}
		sort.Ints(out)
		return out
	}
	for depth := 0; len(out) < e.Want; depth++ {
		added := false
		for _, nd := range order {
			if depth < len(byNode[nd]) {
				out = append(out, byNode[nd][depth])
				added = true
				if len(out) == e.Want {
					break
				}
			}
		}
		if !added {
			break
		}
	}
	sort.Ints(out)
	return out
}

// BridgeFirst returns the MPICH BG/Q strategy: prefer ranks on I/O bridge
// nodes, then spread the remainder. Without bridge information it degrades
// to NodeSpread.
func BridgeFirst() Placement { return bridgeFirst{} }

type bridgeFirst struct{ firstMember }

func (bridgeFirst) Name() string { return "bridge-first" }

func (bridgeFirst) SelectSet(e *SetElection) []int {
	if e.Bridge == nil {
		return nodeSpread{}.SelectSet(e)
	}
	var bridgeRanks, otherFirstRanks []int
	seen := map[int]bool{}
	for r, nd := range e.Nodes {
		if seen[nd] {
			continue
		}
		seen[nd] = true
		if e.Bridge(nd) {
			bridgeRanks = append(bridgeRanks, r)
		} else {
			otherFirstRanks = append(otherFirstRanks, r)
		}
	}
	out := bridgeRanks
	if len(out) > e.Want {
		out = out[:e.Want]
	}
	// Fill the remainder evenly across the non-bridge nodes. When more slots
	// remain than distinct nodes, take every node once rather than striding
	// into duplicates — a duplicated rank would leave one collective-
	// buffering file domain with no owner.
	need := e.Want - len(out)
	if need >= len(otherFirstRanks) {
		out = append(out, otherFirstRanks...)
	} else {
		for i := 0; i < need; i++ {
			out = append(out, otherFirstRanks[i*len(otherFirstRanks)/need])
		}
	}
	sort.Ints(out)
	return out
}
