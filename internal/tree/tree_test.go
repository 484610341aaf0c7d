package tree

import (
	"math/rand"
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/topology"
)

// randMembers builds a random member list over consecutive nodes with rpn
// ranks per node and random (occasionally zero) volumes.
func randMembers(rng *rand.Rand, ranks, rpn, firstNode int) []cost.Member {
	out := make([]cost.Member, ranks)
	for i := range out {
		b := rng.Int63n(1 << 16)
		if rng.Intn(8) == 0 {
			b = 0
		}
		out[i] = cost.Member{Node: firstNode + i/rpn, Bytes: b}
	}
	return out
}

// shapeMenu is every family with a spread of fan-ins.
func shapeMenu() []Shape {
	return []Shape{
		{Kind: Flat}, {Kind: NodeStaged},
		{Kind: FanIn, K: 2}, {Kind: FanIn, K: 3}, {Kind: FanIn, K: 5}, {Kind: FanIn, K: 8},
		{Kind: GroupTree}, {Kind: Chain},
	}
}

// TestBuildInvariants fuzzes every shape over random partitions and checks
// the structural contract the data plane depends on: a single root, acyclic
// parents, and every subtree a contiguous leader span (Build panics on
// violation, so reaching the end is the assertion); plus the explicit
// bounds: FanIn respects K at the root, degenerate shapes have ≤ 1 level.
func TestBuildInvariants(t *testing.T) {
	tor := topology.MiraTorus(128)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ranks := 1 + rng.Intn(64)
		rpn := 1 + rng.Intn(4)
		members := randMembers(rng, ranks, rpn, rng.Intn(32))
		leaders, starts := Leaders(members)
		root := RootLeader(starts, rng.Intn(ranks))
		for _, s := range shapeMenu() {
			tr := Build(s, leaders, root, GrouperOf(tor))
			if tr.Parent[tr.Root] != -1 || tr.Depth[tr.Root] != 0 {
				t.Fatalf("%s: bad root %d (parent %d depth %d)", s, tr.Root, tr.Parent[tr.Root], tr.Depth[tr.Root])
			}
			if lo, hi := tr.Span(tr.Root); lo != 0 || hi != len(leaders) {
				t.Fatalf("%s: root spans [%d,%d) of %d leaders", s, lo, hi, len(leaders))
			}
			if s.Degenerate() && tr.Levels > 1 {
				t.Fatalf("%s: degenerate shape built %d levels", s, tr.Levels)
			}
			if s.Kind == FanIn && tr.MaxFanIn > s.fanK()+1 {
				t.Fatalf("fanin:%d built fan-in %d", s.fanK(), tr.MaxFanIn)
			}
		}
	}
}

// TestChainIsOrdered pins the chain family's defining property on a torus:
// relays forward strictly toward the root in leader order, so depth grows
// monotonically with distance from the root's group — the dimension-ordered
// staging chain.
func TestChainIsOrdered(t *testing.T) {
	tor := topology.MiraTorus(256) // PsetSize 128 → 2 groups
	members := make([]cost.Member, 0, 64)
	for n := 0; n < 256; n += 8 { // 32 nodes spanning both Psets
		members = append(members, cost.Member{Node: n, Bytes: 1}, cost.Member{Node: n, Bytes: 1})
	}
	leaders, starts := Leaders(members)
	tr := Build(Shape{Kind: Chain}, leaders, RootLeader(starts, 0), GrouperOf(tor))
	for v := 1; v < len(leaders); v++ {
		if tr.Parent[v] > v {
			t.Fatalf("chain vertex %d forwards away from the root (parent %d)", v, tr.Parent[v])
		}
	}
}

// TestPriceDegeneracy is the shared-helper contract of the cost fix: with
// one rank per node every node group is a singleton, so (a) the two-level
// price must collapse to exactly the flat §IV-B candidacy cost — both now
// route through cost.Model.EdgeCost — and (b) the tree pricer's degenerate
// shapes must reproduce AggregationCost and TwoLevelCost bit-for-bit, for
// the flat and staged trees respectively.
func TestPriceDegeneracy(t *testing.T) {
	topo := topology.ThetaDragonfly(768, topology.RouteMinimal)
	m := cost.NewModel(topo)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ranks := 2 + rng.Intn(48)
		members := randMembers(rng, ranks, 1, rng.Intn(256)) // rpn=1: singleton groups
		root := rng.Intn(ranks)

		flat := m.AggregationCost(members, root)
		twoLevel := m.TwoLevelCost(members, root, 0)
		if flat != twoLevel {
			t.Fatalf("rpn=1: TwoLevelCost %.9g != AggregationCost %.9g", twoLevel, flat)
		}

		leaders, starts := Leaders(members)
		rl := RootLeader(starts, root)
		ft := Build(Shape{Kind: Flat}, leaders, rl, nil)
		if got := Price(m, ft, leaders, members, root, PriceOptions{}); got != flat {
			t.Fatalf("flat tree price %.9g != AggregationCost %.9g", got, flat)
		}
		st := Build(Shape{Kind: NodeStaged}, leaders, rl, nil)
		if got := Price(m, st, leaders, members, root, PriceOptions{}); got != twoLevel {
			t.Fatalf("staged tree price %.9g != TwoLevelCost %.9g", got, twoLevel)
		}
	}
}

// TestDegenerateMessageCounts: PriceDegenerate's per-message term counts one
// fabric message per active remote member (flat) or per active remote node
// run as Leaders groups them (staged), also when a node's members come back
// in a second run.
func TestDegenerateMessageCounts(t *testing.T) {
	m := cost.NewModel(topology.ThetaDragonfly(64, topology.RouteMinimal))
	rng := rand.New(rand.NewSource(11))
	opt := PriceOptions{PerMessageSeconds: 1}
	for trial := 0; trial < 200; trial++ {
		ranks := 1 + rng.Intn(40)
		members := randMembers(rng, ranks, 1+rng.Intn(6), 0)
		if trial%2 == 1 { // fold nodes so runs of one node repeat
			for i := range members {
				members[i].Node %= 3
			}
		}
		root := rng.Intn(ranks)
		rootNode := members[root].Node
		var flat, staged int
		for i, mb := range members {
			if i != root && mb.Bytes > 0 && mb.Node != rootNode {
				flat++
			}
		}
		leaders, _ := Leaders(members)
		for _, l := range leaders {
			if l.Bytes > 0 && l.Node != rootNode {
				staged++
			}
		}
		if got, want := PriceDegenerate(m, Flat, members, root, opt), m.AggregationCost(members, root)+float64(flat); got != want {
			t.Fatalf("flat price %.9g, want %.9g (%d messages)", got, want, flat)
		}
		if got, want := PriceDegenerate(m, NodeStaged, members, root, opt), m.TwoLevelCost(members, root, 0)+float64(staged); got != want {
			t.Fatalf("staged price %.9g, want %.9g (%d messages)", got, want, staged)
		}
	}
}

// TestSearchPicksFlatOnCleanFabric: with no per-message penalty and an
// honest fence charge, interior levels only add cost, so the search must
// answer with a degenerate shape — this is the "where flat still wins" half
// of the abl-tree claim, pinned at unit level.
func TestSearchPicksFlatOnCleanFabric(t *testing.T) {
	topo := topology.ThetaDragonfly(768, topology.RouteMinimal)
	m := cost.NewModel(topo)
	rng := rand.New(rand.NewSource(13))
	members := randMembers(rng, 16, 4, 0)
	res := Search(m, []Partition{{Members: members, Root: 0}}, GrouperOf(topo),
		SearchOptions{Price: PriceOptions{FenceSeconds: 1e-4}})
	if !res.Shape.Degenerate() {
		t.Fatalf("clean fabric picked %s (%.3gs), want a degenerate shape", res.Shape, res.Seconds)
	}
}

// TestSearchPicksTreeUnderLoss: a large lossy incast — many node groups, a
// heavy expected per-message stall — must flip the search to an interior
// shape: serializing 256 retransmit-prone messages on one NIC costs more
// than two short levels plus a fence.
func TestSearchPicksTreeUnderLoss(t *testing.T) {
	topo := topology.ThetaDragonfly(768, topology.RouteMinimal)
	m := cost.NewModel(topo)
	members := make([]cost.Member, 256)
	for i := range members {
		members[i] = cost.Member{Node: i, Bytes: 64 << 10}
	}
	res := Search(m, []Partition{{Members: members, Root: 0}}, GrouperOf(topo),
		SearchOptions{Price: PriceOptions{PerMessageSeconds: 5e-5, FenceSeconds: 1e-4}})
	if res.Shape.Degenerate() {
		t.Fatalf("lossy 256-node incast picked %s, want an interior shape", res.Shape)
	}
	if res.Levels < 2 {
		t.Fatalf("interior shape %s reports %d levels", res.Shape, res.Levels)
	}
}

// TestSearchSkipsEmptyPartitions: a partition without members prices
// nothing, so it must not shift the others — each partition's leaders are
// priced against its own members and root.
func TestSearchSkipsEmptyPartitions(t *testing.T) {
	topo := topology.ThetaDragonfly(768, topology.RouteMinimal)
	m := cost.NewModel(topo)
	rng := rand.New(rand.NewSource(5))
	a, b := randMembers(rng, 32, 4, 0), randMembers(rng, 12, 2, 40)
	opt := SearchOptions{Price: PriceOptions{PerMessageSeconds: 5e-5, FenceSeconds: 1e-4}}
	want := Search(m, []Partition{{Members: a, Root: 3}, {Members: b, Root: 7}}, GrouperOf(topo), opt)
	got := Search(m, []Partition{{}, {Members: a, Root: 3}, {}, {Members: b, Root: 7}}, GrouperOf(topo), opt)
	if got != want {
		t.Fatalf("with empty partitions: %+v, want %+v", got, want)
	}
}

// TestParseShape round-trips the textual forms.
func TestParseShape(t *testing.T) {
	for _, s := range []string{"flat", "staged", "fanin:2", "fanin:16", "group", "chain"} {
		sh, err := ParseShape(s)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", s, err)
		}
		if sh.String() != s {
			t.Fatalf("ParseShape(%q) round-trips as %q", s, sh)
		}
	}
	for _, s := range []string{"", "ring", "fanin", "fanin:1", "group:3"} {
		if s == "fanin" {
			continue // bare fanin defaults K=8, legal
		}
		if _, err := ParseShape(s); err == nil {
			t.Fatalf("ParseShape(%q) accepted", s)
		}
	}
}

// FuzzParseShape: every accepted spelling parses back to the same shape from
// its canonical String form, the wire form hints and reports carry.
func FuzzParseShape(f *testing.F) {
	for _, s := range []string{"flat", "staged", "group", "chain", "fanin", "fanin:2", "fanin:16", " fanin:03 ", "fanin:1", "flat:2", "ring", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShape(s)
		if err != nil {
			return
		}
		back, err := ParseShape(sh.String())
		if err != nil {
			t.Fatalf("ParseShape(%q) = %v, but its String %q does not parse: %v", s, sh, sh.String(), err)
		}
		if back != sh {
			t.Fatalf("ParseShape(%q) = %+v, round trip through %q gives %+v", s, sh, sh.String(), back)
		}
	})
}
