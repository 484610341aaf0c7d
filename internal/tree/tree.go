// Package tree synthesizes multi-level aggregation trees per (topology,
// workload), generalizing TAPIOCA's fixed two-phase reduction the way TACOS
// synthesizes a collective per fabric instead of picking from a menu. A
// partition's members collapse onto their node groups (the same grouping the
// two-level cost model and the intra-node staging data plane use); the tree
// arranges those node-group leaders into interior reduction levels rooted at
// the elected aggregator. The flat two-phase exchange and the node-staged
// variant are degenerate shapes of the same family, so a searched plan can
// always fall back to exactly today's paths.
//
// Every shape preserves one structural invariant the data plane depends on:
// a vertex's subtree always covers a contiguous span of partition-local
// ranks. The planner assigns round-buffer offsets in ascending local-rank
// order, so a contiguous rank span owns a contiguous buffer-offset range
// every round — which is what lets an interior relay forward its whole
// subtree as one coalesced put instead of re-fragmenting into per-piece
// messages (the TPIE discipline: levels stream through existing window
// memory, no per-hop re-staging).
package tree

import (
	"fmt"
	"strconv"
	"strings"

	"tapioca/internal/cost"
)

// Kind enumerates the aggregation-tree shape families the search explores.
type Kind int

const (
	// Flat is today's default two-phase exchange: every member ships its
	// pieces straight to the aggregator. Degenerate — no tree machinery runs.
	Flat Kind = iota
	// NodeStaged is the intra-node pre-aggregation variant: members deposit
	// into their node leader, one coalesced message per node goes straight to
	// the aggregator. Degenerate — no interior levels (core.Config's
	// IntraNodeStaging knob is another spelling of this shape).
	NodeStaged
	// FanIn bounds every interior vertex to at most K children by inserting
	// relay levels over contiguous runs of node leaders.
	FanIn
	// GroupTree elects one relay per topology locality group (dragonfly
	// group, torus Pset): leaders reduce into their group's relay, relays
	// ship one message each to the aggregator.
	GroupTree
	// Chain orders the group relays by node id — dimension-ordered on a
	// torus, where consecutive node ids walk the sub-box — and daisy-chains
	// them toward the aggregator, so every fabric hop is neighbor-to-neighbor.
	Chain
)

var kindNames = [...]string{"flat", "staged", "fanin", "group", "chain"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Shape is one searched tree configuration: the family plus its parameter.
// The zero value is the flat degenerate.
type Shape struct {
	Kind Kind
	// K is the FanIn bound (ignored by other kinds). Values < 2 mean 2.
	K int
}

func (s Shape) String() string {
	if s.Kind == FanIn {
		return fmt.Sprintf("fanin:%d", s.fanK())
	}
	return s.Kind.String()
}

func (s Shape) fanK() int {
	if s.K < 2 {
		return 2
	}
	return s.K
}

// Degenerate reports whether the shape reduces to an existing non-tree path
// (flat two-phase or node-staged) and needs no interior levels.
func (s Shape) Degenerate() bool { return s.Kind == Flat || s.Kind == NodeStaged }

// Staged reports whether the shape's base level is intra-node staging. Every
// tree shape stages except the flat degenerate: interior relays only make
// sense once per-node traffic is already coalesced.
func (s Shape) Staged() bool { return s.Kind != Flat }

// ParseShape parses the textual form used by hints, flags and reports:
// "flat", "staged", "group", "chain", or "fanin:K".
func ParseShape(text string) (Shape, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(text), ":")
	for k, n := range kindNames {
		if name != n {
			continue
		}
		s := Shape{Kind: Kind(k)}
		if hasArg {
			if s.Kind != FanIn {
				return Shape{}, fmt.Errorf("tree: shape %q takes no parameter", name)
			}
			v, err := strconv.Atoi(arg)
			if err != nil || v < 2 {
				return Shape{}, fmt.Errorf("tree: bad fan-in %q (want integer ≥ 2)", arg)
			}
			s.K = v
		} else if s.Kind == FanIn {
			s.K = 8
		}
		return s, nil
	}
	return Shape{}, fmt.Errorf("tree: unknown shape %q (want flat|staged|fanin:K|group|chain)", text)
}

// Grouper is the topology hook GroupTree and Chain cluster around: the
// fabric's locality group of a node (dragonfly group, torus Pset). The
// interface is structural so topologies need not import this package.
type Grouper interface{ GroupOf(node int) int }

// GrouperOf extracts the locality-group hook from an arbitrary topology, or
// nil when the fabric exposes none (group shapes then collapse to one global
// group, i.e. the node-staged degenerate).
func GrouperOf(topo any) Grouper {
	if g, ok := topo.(Grouper); ok {
		return g
	}
	return nil
}

// Leader is one node group of a partition as the tree sees it: the compute
// node and the group's declared data volume (structure never depends on the
// volumes; pricing does).
type Leader struct {
	Node  int
	Bytes int64
}

// Leaders collapses a partition's members (ordered by partition-local rank)
// into node groups by run-length over consecutive equal nodes, and returns
// the group list plus the member-index boundaries: leader i covers members
// [starts[i], starts[i+1]). Run-length grouping — rather than a global
// node→group map — is what keeps every group a contiguous local-rank span
// even under exotic rank-to-node mappings.
func Leaders(members []cost.Member) (leaders []Leader, starts []int) {
	for i, m := range members {
		if i == 0 || m.Node != members[i-1].Node {
			leaders = append(leaders, Leader{Node: m.Node})
			starts = append(starts, i)
		}
		leaders[len(leaders)-1].Bytes += m.Bytes
	}
	starts = append(starts, len(members))
	return leaders, starts
}

// RootLeader returns the index of the leader group containing member root.
func RootLeader(starts []int, root int) int {
	for i := 0; i+1 < len(starts); i++ {
		if root >= starts[i] && root < starts[i+1] {
			return i
		}
	}
	panic(fmt.Sprintf("tree: root member %d outside leader spans %v", root, starts))
}

// Tree is one concrete reduction tree over a partition's node-group leaders,
// rooted at the aggregator's group. Vertices are leader indices; Parent[v]
// is the leader index v forwards its subtree to (-1 for the root), Depth[v]
// the hop count to the root. Levels is the maximum depth: a flat or
// node-staged tree has Levels ≤ 1 (everything rides the main exchange), and
// each extra level is one interior forwarding phase in the pipeline.
type Tree struct {
	Shape  Shape
	Root   int
	Parent []int
	Depth  []int
	Levels int
	// MaxFanIn is the largest child count over receiving vertices (the root
	// included) — the fan-in the shape actually achieved.
	MaxFanIn int
	// spanLo/spanHi are each vertex's subtree as a leader-index span [lo,hi).
	spanLo, spanHi []int
}

// Span returns vertex v's subtree as a half-open leader-index span. The
// build guarantees the span is exactly the subtree (contiguity invariant).
func (t *Tree) Span(v int) (lo, hi int) { return t.spanLo[v], t.spanHi[v] }

// Build constructs the concrete tree for a shape over a partition's leader
// list, rooted at leader index root. g supplies topology locality groups for
// GroupTree/Chain; a nil g collapses those shapes to one global group (the
// node-staged degenerate). Build panics if a shape would violate the
// contiguous-subtree invariant — that is an internal bug, not an input error.
func Build(shape Shape, leaders []Leader, root int, g Grouper) *Tree {
	n := len(leaders)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("tree: root leader %d of %d", root, n))
	}
	t := &Tree{Shape: shape, Root: root, Parent: make([]int, n)}
	for i := range t.Parent {
		t.Parent[i] = root
	}
	t.Parent[root] = -1

	switch shape.Kind {
	case Flat, NodeStaged:
		// Everyone already points at the root.
	case FanIn:
		k := shape.fanK()
		// The root splits the leader order into up to two contiguous runs;
		// chunks never straddle the root's position, so every subtree span
		// stays contiguous. The root's child budget k is split across the
		// two runs proportionally to their sizes.
		left, right := root, n-1-root
		kl := 0
		switch {
		case left > 0 && right > 0:
			kl = (k*left + (left+right)/2) / (left + right)
			if kl < 1 {
				kl = 1
			}
			if kl > k-1 {
				kl = k - 1
			}
		case left > 0:
			kl = k
		}
		attachFanIn(t, run(0, root), root, kl, k)
		attachFanIn(t, run(root+1, n), root, k-kl, k)
	case GroupTree, Chain:
		runs := groupRuns(leaders, g)
		var pre, post []int // relay vertices left and right of the root's run
		for _, ru := range runs {
			if root >= ru[0] && root < ru[1] {
				continue // the root's own run attaches directly to the root
			}
			relay := ru[0]
			for v := ru[0] + 1; v < ru[1]; v++ {
				t.Parent[v] = relay
			}
			if ru[1] <= root {
				pre = append(pre, relay)
			} else {
				post = append(post, relay)
			}
		}
		if shape.Kind == Chain {
			// Daisy-chain each side toward the root: relays before the
			// root's run forward to the next relay, relays after it to the
			// previous one. A relay's subtree is then every run between it
			// and its side's far end — still a contiguous span.
			for i := 0; i+1 < len(pre); i++ {
				t.Parent[pre[i]] = pre[i+1]
			}
			for i := 1; i < len(post); i++ {
				t.Parent[post[i]] = post[i-1]
			}
		}
	default:
		panic(fmt.Sprintf("tree: unknown shape kind %d", shape.Kind))
	}
	t.finish()
	return t
}

// run materializes the contiguous index run [lo,hi) (empty when lo ≥ hi).
func run(lo, hi int) []int {
	if lo >= hi {
		return nil
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// attachFanIn hangs the contiguous run of vertices under parent, spending at
// most budget direct children of parent and at most k children anywhere
// below: the run splits into at most budget balanced contiguous chunks, each
// chunk's first vertex relays for the rest, recursively with the full bound.
func attachFanIn(t *Tree, vs []int, parent, budget, k int) {
	if len(vs) == 0 {
		return
	}
	if len(vs) <= budget {
		for _, v := range vs {
			t.Parent[v] = parent
		}
		return
	}
	chunks := budget
	if chunks > len(vs) {
		chunks = len(vs)
	}
	for c := 0; c < chunks; c++ {
		lo := c * len(vs) / chunks
		hi := (c + 1) * len(vs) / chunks
		relay := vs[lo]
		t.Parent[relay] = parent
		attachFanIn(t, vs[lo+1:hi], relay, k, k)
	}
}

// groupRuns splits the leader order into maximal runs of equal locality
// group. Group changes delimit runs even if a group id reappears later, so
// runs are always contiguous spans regardless of the node mapping.
func groupRuns(leaders []Leader, g Grouper) [][2]int {
	groupOf := func(node int) int { return 0 }
	if g != nil {
		groupOf = g.GroupOf
	}
	var runs [][2]int
	for i := range leaders {
		if i == 0 || groupOf(leaders[i].Node) != groupOf(leaders[i-1].Node) {
			runs = append(runs, [2]int{i, i})
		}
		runs[len(runs)-1][1] = i + 1
	}
	return runs
}

// finish derives depths, levels, fan-in and subtree spans from the parent
// array, and checks the contiguity invariant.
func (t *Tree) finish() {
	n := len(t.Parent)
	t.Depth = make([]int, n)
	for v := range t.Depth {
		t.Depth[v] = -1
	}
	t.Depth[t.Root] = 0
	var depthOf func(v int) int
	depthOf = func(v int) int {
		if t.Depth[v] >= 0 {
			return t.Depth[v]
		}
		t.Depth[v] = -2 // cycle sentinel
		p := t.Parent[v]
		if p < 0 || p >= n {
			panic(fmt.Sprintf("tree: vertex %d has parent %d", v, p))
		}
		d := depthOf(p)
		if d < 0 {
			panic(fmt.Sprintf("tree: cycle through vertex %d", v))
		}
		t.Depth[v] = d + 1
		return t.Depth[v]
	}
	fanIn := make([]int, n)
	for v := range t.Parent {
		d := depthOf(v)
		if d > t.Levels {
			t.Levels = d
		}
		if p := t.Parent[v]; p >= 0 {
			fanIn[p]++
		}
	}
	for _, f := range fanIn {
		if f > t.MaxFanIn {
			t.MaxFanIn = f
		}
	}
	t.spanLo, t.spanHi = make([]int, n), make([]int, n)
	size := make([]int, n)
	for v := 0; v < n; v++ {
		t.spanLo[v], t.spanHi[v] = v, v+1
	}
	// Fold every vertex into its ancestors; vertex order is irrelevant for
	// min/max span folding.
	for v := 0; v < n; v++ {
		for a := v; a >= 0; a = t.Parent[a] {
			if v < t.spanLo[a] {
				t.spanLo[a] = v
			}
			if v+1 > t.spanHi[a] {
				t.spanHi[a] = v + 1
			}
			size[a]++
		}
	}
	for v := 0; v < n; v++ {
		if size[v] != t.spanHi[v]-t.spanLo[v] {
			panic(fmt.Sprintf("tree: %s subtree of vertex %d covers %d leaders but spans [%d,%d) — contiguity broken",
				t.Shape, v, size[v], t.spanLo[v], t.spanHi[v]))
		}
	}
}
