package cost

import (
	"math"
	"testing"

	"tapioca/internal/topology"
)

// torusElection builds an election on a Mira-like torus with the
// data volume skewed toward high node indices.
func torusElection(t *testing.T) *Election {
	t.Helper()
	topo := topology.MiraTorus(128)
	members := make([]Member, 64)
	for i := range members {
		members[i] = Member{Node: i * 2, Bytes: int64(i+1) * 4096}
	}
	return &Election{
		Model:   NewModel(topo),
		Members: members,
		IOBytes: 1 << 20,
	}
}

func TestTopologyAwareLocalElectsMinimum(t *testing.T) {
	e := torusElection(t)
	winner := TopologyAware().Elect(e)
	wc := e.Model.CandidacyCost(e.Members, winner, e.IOBytes)
	for i := range e.Members {
		if c := e.Model.CandidacyCost(e.Members, i, e.IOBytes); c < wc {
			t.Fatalf("member %d costs %v < winner %d at %v", i, c, winner, wc)
		}
	}
	// The skew pulls the aggregator away from the first member.
	if winner == 0 {
		t.Fatal("topology-aware election ignored the data skew")
	}
}

func TestWorstLocalElectsMaximum(t *testing.T) {
	e := torusElection(t)
	winner := Worst().Elect(e)
	wc := e.Model.CandidacyCost(e.Members, winner, e.IOBytes)
	for i := range e.Members {
		if c := e.Model.CandidacyCost(e.Members, i, e.IOBytes); c > wc {
			t.Fatalf("member %d costs %v > adversarial winner %v", i, c, wc)
		}
	}
	// Invariant the ablation depends on: best ≤ worst.
	best := TopologyAware().Elect(e)
	if e.Model.CandidacyCost(e.Members, best, e.IOBytes) > wc {
		t.Fatal("topology-aware candidate costs more than the adversarial one")
	}
}

func TestTwoLevelElectsANodeLeader(t *testing.T) {
	topo := topology.MiraTorus(128)
	// 4 ranks per node across 16 nodes; leaders are indices ≡ 0 (mod 4).
	members := make([]Member, 64)
	for i := range members {
		members[i] = Member{Node: i / 4, Bytes: int64(i+1) * 1024}
	}
	e := &Election{Model: NewModel(topo), Members: members, IOBytes: 1 << 20}
	winner := TwoLevel().Elect(e)
	if winner%4 != 0 {
		t.Fatalf("two-level elected member %d, not a node leader", winner)
	}
}

func TestRandomDeterministicPerPartition(t *testing.T) {
	e := torusElection(t)
	e.Partition = 7
	a := Random().Elect(e)
	if b := Random().Elect(e); a != b {
		t.Fatalf("random election not deterministic: %d vs %d", a, b)
	}
	e.Partition = 8
	if c := Random().Elect(e); c == a {
		// Not impossible, but with 64 members two consecutive seeds
		// colliding would indicate a broken hash.
		t.Logf("partitions 7 and 8 elected the same member %d", a)
	}
	if got := RankOrder().Elect(e); got != 0 {
		t.Fatalf("rank order elected %d, want 0", got)
	}
}

func TestElectionDeterministicAcrossRepeats(t *testing.T) {
	for _, p := range []Placement{TopologyAware(), TwoLevel(), Worst(), Random(), RankOrder()} {
		e := torusElection(t)
		first := p.Elect(e)
		for i := 0; i < 3; i++ {
			e2 := torusElection(t)
			if got := p.Elect(e2); got != first {
				t.Fatalf("%s: elected %d then %d", p.Name(), first, got)
			}
		}
	}
}

func TestCollectiveModeAgreesWithLocalScan(t *testing.T) {
	// Reduce the per-member costs a placement reports the way the
	// paper's Allreduce MINLOC/MAXLOC would, by hand; the result must
	// match the placement's local scan (ties to the lowest index in both).
	for _, tc := range []struct {
		p   Placement
		max bool
	}{{TopologyAware(), false}, {Worst(), true}, {TwoLevel(), false}} {
		e := torusElection(t)
		localWinner := tc.p.Elect(e)
		if len(e.Costs) != len(e.Members) {
			t.Fatalf("%s: %d costs for %d members", tc.p.Name(), len(e.Costs), len(e.Members))
		}
		bestLoc, bestVal := -1, 0.0
		for self, v := range e.Costs {
			if bestLoc < 0 || (!tc.max && v < bestVal) || (tc.max && v > bestVal) {
				bestLoc, bestVal = self, v
			}
		}
		if bestLoc != localWinner {
			t.Fatalf("%s: collective reduction elects %d, local scan %d", tc.p.Name(), bestLoc, localWinner)
		}
	}
}

func TestNodeSpreadSetMatchesSeedHeuristic(t *testing.T) {
	// 4 nodes × 2 ranks, want 4: first rank of each node.
	nodes := []int{0, 0, 1, 1, 2, 2, 3, 3}
	got := NodeSpread().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 4})
	want := []int{0, 2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node spread = %v, want %v", got, want)
		}
	}
	// Oversubscribed: want 6 from 4 nodes → second ranks fill in.
	got = NodeSpread().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 6})
	if len(got) != 6 {
		t.Fatalf("oversubscribed spread returned %v", got)
	}
}

func TestRankOrderSetStacks(t *testing.T) {
	nodes := []int{0, 0, 1, 1, 2, 2}
	got := RankOrder().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 3})
	for i, r := range got {
		if r != i {
			t.Fatalf("rank order set = %v, want 0..2", got)
		}
	}
}

func TestBridgeFirstSetPrefersBridges(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4, 5}
	bridge := func(nd int) bool { return nd == 2 || nd == 5 }
	got := BridgeFirst().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 2, Bridge: bridge})
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("bridge-first set = %v, want [2 5]", got)
	}
	// Without bridge info it degrades to node spread.
	got = BridgeFirst().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 2})
	if len(got) != 2 {
		t.Fatalf("fallback set = %v", got)
	}
}

func TestBridgeFirstSetNeverDuplicates(t *testing.T) {
	// More slots than distinct non-bridge nodes: the fill must take each
	// node once (a duplicated rank would orphan a file domain), returning a
	// smaller set rather than repeating ranks.
	nodes := make([]int, 8) // 8 ranks on 4 nodes, node 0 is a bridge
	for r := range nodes {
		nodes[r] = r / 2
	}
	bridge := func(nd int) bool { return nd == 0 }
	got := BridgeFirst().(SetStrategy).SelectSet(&SetElection{Nodes: nodes, Want: 7, Bridge: bridge})
	seen := map[int]bool{}
	for _, r := range got {
		if seen[r] {
			t.Fatalf("duplicate rank %d in %v", r, got)
		}
		seen[r] = true
	}
	if len(got) != 4 { // 1 bridge first-rank + 3 non-bridge first-ranks
		t.Fatalf("set = %v, want the 4 distinct first ranks", got)
	}
}

func TestTwoLevelCollectiveNonLeaderObservesNothing(t *testing.T) {
	// A non-leader is not priced: it must report 0, not +Inf or a cost
	// of its own, as its candidacy cost.
	topo := topology.MiraTorus(128)
	members := []Member{{Node: 0, Bytes: 100}, {Node: 0, Bytes: 200}, {Node: 1, Bytes: 300}}
	e := &Election{Model: NewModel(topo), Members: members}
	winner := TwoLevel().Elect(e)
	if winner == 1 {
		t.Fatalf("non-leader 1 elected")
	}
	if len(e.Costs) != len(members) || e.Costs[1] != 0 {
		t.Fatalf("non-leader 1 reported cost; costs %v", e.Costs)
	}
}

func TestTopologyAwareHasNoSetStrategy(t *testing.T) {
	if _, ok := TopologyAware().(SetStrategy); ok {
		t.Fatal("topology-aware should elect per partition, not pick global sets")
	}
	if _, ok := TwoLevel().(SetStrategy); ok {
		t.Fatal("two-level should elect per partition, not pick global sets")
	}
}

// fuzzModels are the machines FuzzElect prices on: a BG/Q torus, where C2
// steers toward bridge nodes, and a dragonfly, where C2 is zero.
var fuzzModels = []*Model{
	NewModel(topology.MiraTorus(128)),
	NewModel(topology.ThetaDragonfly(64, topology.RouteMinimal)),
}

// fuzzMembers decodes a member table from fuzz bytes, two per member: the
// node (within a small range, so members share nodes) and the volume (a
// few small values, zero included, so candidacies tie; or a spread one).
func fuzzMembers(data []byte, nodes int) []Member {
	members := make([]Member, max(1, len(data)/2))
	for i := range members {
		if 2*i+1 >= len(data) {
			break
		}
		nb, bb := data[2*i], data[2*i+1]
		members[i].Node = int(nb) % nodes
		if bb < 128 {
			members[i].Bytes = int64(bb%4) << 12
		} else {
			members[i].Bytes = int64(bb) * 1000
		}
	}
	return members
}

// FuzzElect checks every built-in placement over random member tables: a
// cost-driven placement reports each priced member's exact candidacy cost
// (0 for the members it does not price) and elects what a MINLOC (MAXLOC
// for Worst) reduction over those costs elects, ties to the lowest index;
// a heuristic reports no costs.
func FuzzElect(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0), uint8(0))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1}, uint8(0), uint32(1<<20), uint8(3))
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 1, 2, 0, 2, 0}, uint8(1), uint32(4096), uint8(1))
	f.Add([]byte{5, 200, 9, 3, 5, 130, 17, 255, 9, 0, 40, 66}, uint8(0), uint32(1<<26), uint8(7))
	f.Add([]byte{3, 0, 3, 0, 3, 0}, uint8(1), uint32(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, model uint8, ioBytes uint32, part uint8) {
		if len(data) > 96 {
			data = data[:96] // 48 members: elections are quadratic
		}
		m := fuzzModels[int(model)%len(fuzzModels)]
		members := fuzzMembers(data, 16)
		io := int64(ioBytes)
		leader := func(i int) bool {
			for j := 0; j < i; j++ {
				if members[j].Node == members[i].Node {
					return false
				}
			}
			return true
		}
		for _, pl := range []Placement{
			TopologyAware(), Worst(), TwoLevel(),
			Random(), RankOrder(), NodeSpread(), BridgeFirst(),
		} {
			e := &Election{Model: m, Members: members, IOBytes: io, Partition: int(part)}
			got := pl.Elect(e)
			if got < 0 || got >= len(members) {
				t.Fatalf("%s elected %d of %d members", pl.Name(), got, len(members))
			}
			var price func(i int) (float64, bool)
			switch pl.Name() {
			case "topology-aware", "worst":
				price = func(i int) (float64, bool) { return m.CandidacyCost(members, i, io), true }
			case "two-level":
				price = func(i int) (float64, bool) {
					if !leader(i) {
						return 0, false
					}
					return m.TwoLevelCost(members, i, io), true
				}
			default:
				if e.Costs != nil {
					t.Fatalf("%s reported costs %v", pl.Name(), e.Costs)
				}
				continue
			}
			if len(e.Costs) != len(members) {
				t.Fatalf("%s reported %d costs for %d members", pl.Name(), len(e.Costs), len(members))
			}
			maxLoc := pl.Name() == "worst"
			want, best := -1, 0.0
			for i := range members {
				c, priced := price(i)
				if math.Float64bits(e.Costs[i]) != math.Float64bits(c) {
					t.Fatalf("%s member %d: cost %v, want %v", pl.Name(), i, e.Costs[i], c)
				}
				if !priced {
					continue
				}
				if want < 0 || (maxLoc && c > best) || (!maxLoc && c < best) {
					want, best = i, c
				}
			}
			if got != want {
				t.Fatalf("%s elected %d, the reduction over its costs %v elects %d", pl.Name(), got, e.Costs, want)
			}
		}
	})
}
