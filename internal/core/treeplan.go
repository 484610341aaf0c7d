package core

// Staged aggregation shapes (every Config.Shape() but flat): the write
// pipeline's node-staging hop and, for tree shapes, its interior reduction
// levels. One per-rank role (treeRole) drives both.
//
// The plan builder assigns each round's buffer offsets in ascending
// partition-local-rank order (one contiguous piece per touched member, see
// buildPartition), and the default block rank→node mapping makes a node's
// partition members contiguous local ranks — so a node's round contribution
// occupies one contiguous bufOff range. That invariant lets the node's leader
// cover the whole group with a single coalesced inter-node put: members first
// deposit their pieces into the leader's window memory at the exact offsets
// the aggregator's buffer expects (Win.StagePut — a shared-memory copy at
// memory bandwidth), a node-communicator rendezvous orders the deposits
// before the leader reads them, and the leader then issues one PutGather per
// (node, aggregator, round) carrying the group's contiguous extent. Payload
// bytes take the member → leader → aggregator route with no re-ordering, and
// the end-to-end CRC contract is unchanged.
//
// Groups that cannot win do not stage: a singleton group (ranks-per-node =
// 1) and the group on the aggregator's node at setup (its puts are already
// intra-node) take the direct path. A round whose group pieces are not
// contiguous (custom node mappings can interleave local ranks across nodes)
// also falls back to direct puts, per round.
//
// Tree shapes arrange the partition's node groups into relay levels: every
// group's leader is a tree vertex, the aggregator's group is the root, and
// internal/tree builds the levels (fan-in-k, per-topology-group, chains). A
// vertex at depth d issues a single coalesced PutGather of its whole subtree
// span to its parent's window, then a window fence orders level d against
// level d−1. All offsets are natural (bufOff-relative), so bytes stream
// through existing window memory with no per-hop re-staging and the root's
// flush path is untouched. A partition whose synthesized tree has fewer than
// two levels, or whose node mapping repeats a node in two non-adjacent runs
// (a member could bypass its vertex: staging keys on node identity, the tree
// on run identity), runs node-staged.
//
// Under a staged shape every member of the partition attends every window
// fence (runWrite keeps full participation there), so the interior fence
// budget is a per-partition constant (tree depth − 1), fixed at setup and
// run every round whether or not the round engages the tree. The per-round engagement decision is computed from the globally
// shared plan, identically on every member without communication: a round
// runs the tree only if every vertex's subtree span is contiguous AND every
// non-root multi-member group stages that round. The second condition is
// load-bearing: a group that does not stage sends its members' pieces
// straight to the aggregator, and an ancestor forwarding a span over those
// pieces would overwrite the root's copy with garbage. Rounds that fail
// either test run node-staged for the whole partition.
//
// Staging is write-side: the read pipeline's scatter has no incast to shape.
// On an aggregator failover the partition's tree collapses to node-staged
// rooted at the new aggregator — interior phases become empty fences (the
// budget is frozen, fences are collective) — and the replay path (direct
// puts from rank-side payload buffers, recover.go) needs no tree: interior
// windows never hold the only copy of any byte.

import (
	"fmt"

	"tapioca/internal/mpi"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

// treeRole is one rank's role in a staged write: its node group's per-round
// staging decision and, under a tree with interior levels, its vertex.
type treeRole struct {
	nodeComm    *mpi.Comm // node-scoped sub-communicator within the partition
	leaderLocal int       // partition-local rank of my node group's leader
	leader      bool
	rounds      []roundRole

	// t is the partition's synthesized tree, nil when it has no interior
	// levels; the fields below are meaningful only with t set.
	t *tree.Tree
	// depth is the tree depth of the vertex this rank leads.
	depth int
	// diverted: this vertex's coalesced put waits for the interior levels —
	// it has children, or sits below depth 1.
	diverted bool
	// parentLocal is the partition-local rank the vertex forwards to: the
	// aggregator itself when the parent is the root vertex, else the parent
	// group's leader.
	parentLocal int
	// fences is the partition's interior fence budget per round: tree depth
	// minus one, frozen at setup (failover must not change it).
	fences int
	// collapsed is set by failover: the tree degrades to node-staged under
	// the new root and interior phases turn into empty fences.
	collapsed bool
	// msgs counts coalesced vertex sends by sender depth (index 0 unused).
	msgs []int64
}

// roundRole is what setupTree's scan records per round.
type roundRole struct {
	staged   bool  // my node group stages this round
	engaged  bool  // the interior levels run this round (partition-wide)
	lo, hi   int64 // staged: my group's contiguous bufOff span
	vlo, vhi int64 // engaged: my vertex's subtree span (empty without one)
}

// putRole is what a rank does with its own pieces in one round.
type putRole uint8

const (
	putDirect  putRole = iota // one put per piece into the aggregator
	putDeposit                // one StagePut per piece into the node leader
	putVertex                 // the pieces ride the rank's coalesced span put
)

// roundStep is one rank's part in one write round.
type roundStep struct {
	role putRole
	// rendezvous: the node group staged, so the rank joins the node fence
	// after its pieces.
	rendezvous bool
	// putVertex only: the span [lo,hi) goes to partition-local rank to, at
	// level 0 (before the interior levels) or after the levels deeper than
	// tree depth level; count books it as a tree-level message.
	lo, hi int64
	to     int
	level  int
	count  bool
}

// step resolves this rank's part in round r.
func (tr *treeRole) step(r, aggLocal int) roundStep {
	rr := &tr.rounds[r]
	treed := tr.t != nil && !tr.collapsed && rr.engaged
	switch {
	case treed && tr.diverted:
		return roundStep{role: putVertex, rendezvous: rr.staged, lo: rr.vlo, hi: rr.vhi,
			to: tr.parentLocal, level: tr.depth, count: true}
	case rr.staged && tr.leader:
		// Under an engaged tree this is a childless depth-1 vertex: its
		// inline put is its level-1 send.
		return roundStep{role: putVertex, rendezvous: true, lo: rr.lo, hi: rr.hi, to: aggLocal, count: treed}
	case rr.staged:
		return roundStep{role: putDeposit, rendezvous: true}
	}
	return roundStep{}
}

// interiorTree returns this rank's synthesized tree, or nil when its
// partition has no interior levels.
func (w *Writer) interiorTree() *tree.Tree {
	if w.tp == nil {
		return nil
	}
	return w.tp.t
}

// span accumulates a set of pieces' bufOff extent and byte total.
type span struct{ lo, hi, total int64 }

func (s *span) add(p putPiece) {
	if s.total == 0 || p.bufOff < s.lo {
		s.lo = p.bufOff
	}
	if end := p.bufOff + p.bytes; end > s.hi {
		s.hi = end
	}
	s.total += p.bytes
}

// gapped reports a non-empty span its pieces do not cover exactly.
func (s span) gapped() bool { return s.total > 0 && s.hi-s.lo != s.total }

// partLeaders builds the tree's leader list for this rank's partition: node
// groups by run-length over the partition's local-rank order, weighted by
// the planner's per-member volumes. starts holds each group's first local
// rank, with a len(members) sentinel appended.
func (w *Writer) partLeaders(pp *partPlan) (leaders []tree.Leader, starts []int) {
	for i := 0; i < pp.rankN; i++ {
		node := w.pc.NodeOfRank(i)
		if i == 0 || node != w.pc.NodeOfRank(i-1) {
			leaders = append(leaders, tree.Leader{Node: node})
			starts = append(starts, i)
		}
		if pp.omega != nil {
			leaders[len(leaders)-1].Bytes += pp.omega[i]
		}
	}
	starts = append(starts, pp.rankN)
	return leaders, starts
}

// buildTree synthesizes shape over this rank's partition, or returns nil
// when the node mapping defeats it or it comes out without interior levels.
func (w *Writer) buildTree(shape tree.Shape, pp *partPlan) (*tree.Tree, []int) {
	leaders, starts := w.partLeaders(pp)
	seen := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		if seen[l.Node] {
			return nil, nil
		}
		seen[l.Node] = true
	}
	var grouper tree.Grouper
	if fab := w.c.World().Fabric(); fab != nil {
		grouper = tree.GrouperOf(fab.Topology())
	}
	t := tree.Build(shape, leaders, tree.RootLeader(starts, w.aggLocal), grouper)
	if t.Levels < 2 {
		return nil, nil
	}
	return t, starts
}

// setupTree builds this rank's role for a staged shape from the globally
// shared plan: every member derives the identical per-round decisions
// without communication. Collective over the partition communicator (every
// member splits off its node communicator). Returns nil when the rank takes
// the direct path every round and no interior levels exist.
func (w *Writer) setupTree(shape tree.Shape) *treeRole {
	pc := w.pc
	pp := &w.plan.parts[w.part]
	nodeComm := pc.SplitNode()
	myNode := pc.Node()
	leaderLocal := 0
	for pc.NodeOfRank(leaderLocal) != myNode {
		leaderLocal++
	}
	groupSize := pc.NodePeers(pc.Rank())
	stages := groupSize > 1 && myNode != pc.NodeOfRank(w.aggLocal)

	var t *tree.Tree
	var starts []int
	if !shape.Degenerate() {
		t, starts = w.buildTree(shape, pp)
	}
	if t == nil && !stages {
		return nil
	}
	tr := &treeRole{nodeComm: nodeComm, leaderLocal: leaderLocal, leader: pc.Rank() == leaderLocal, t: t}

	// The scan covers the whole partition under a tree, one cursor per
	// member grouped by vertex (group[i] is member i's vertex), else just my
	// node group's members, all in group 0 (group nil).
	var group []int
	var cursors [][]putPiece
	myGroup := 0
	if t != nil {
		tr.fences = t.Levels - 1
		tr.msgs = make([]int64, t.Levels+1)
		group = make([]int, pp.rankN)
		for v := 0; v+1 < len(starts); v++ {
			for i := starts[v]; i < starts[v+1]; i++ {
				group[i] = v
			}
		}
		myGroup = group[pc.Rank()]
		if tr.leader {
			tr.depth = t.Depth[myGroup]
			hasChild := false
			for _, p := range t.Parent {
				hasChild = hasChild || p == myGroup
			}
			tr.diverted = tr.depth >= 1 && (hasChild || tr.depth >= 2)
			if p := t.Parent[myGroup]; p == t.Root {
				tr.parentLocal = w.aggLocal
			} else if p >= 0 {
				tr.parentLocal = starts[p]
			}
		}
		cursors = make([][]putPiece, pp.rankN)
		for l := range cursors {
			cursors[l] = w.plan.piecesOf(pp.rankLo + l)
		}
	} else {
		cursors = make([][]putPiece, 0, groupSize)
		for l := leaderLocal; len(cursors) < groupSize; l++ {
			if pc.NodeOfRank(l) == myNode {
				cursors = append(cursors, w.plan.piecesOf(pp.rankLo+l))
			}
		}
	}

	// Cursors walk the shared piece arena, rounds ascending. Each piece
	// folds into its own group's span (the staging contiguity test) and,
	// under a tree, into every ancestor vertex's subtree span.
	nv := 1
	var parent []int
	if t != nil {
		nv, parent = len(starts)-1, t.Parent
	}
	spans := make([]span, 2*nv)
	gs, vs := spans[:nv], spans[nv:] // own-group spans, subtree spans
	tr.rounds = make([]roundRole, pp.rounds)
	used := t != nil
	for r := range tr.rounds {
		clear(spans)
		for i, pieces := range cursors {
			g := 0
			if group != nil {
				g = group[i]
			}
			for len(pieces) > 0 && pieces[0].round == r {
				p := pieces[0]
				pieces = pieces[1:]
				gs[g].add(p)
				if parent != nil {
					for a := g; a >= 0; a = parent[a] {
						vs[a].add(p)
					}
				}
			}
			cursors[i] = pieces
		}
		rr := &tr.rounds[r]
		if g := gs[myGroup]; stages && g.total > 0 && !g.gapped() {
			rr.staged, rr.lo, rr.hi = true, g.lo, g.hi
			used = true
		}
		if t != nil {
			rr.engaged = true
			for v := 0; v < nv && rr.engaged; v++ {
				// Non-root multi-member groups must stage this round or
				// their members' pieces bypass the tree.
				rr.engaged = !vs[v].gapped() &&
					(v == t.Root || starts[v+1]-starts[v] < 2 || !gs[v].gapped())
			}
			if tr.leader && vs[myGroup].total > 0 {
				rr.vlo, rr.vhi = vs[myGroup].lo, vs[myGroup].hi
			}
		}
	}
	if !used {
		return nil
	}
	return tr
}

// put books one of this rank's pieces for round r: a put into the
// aggregator's window, or with deposit a StagePut into the node leader's
// window at the same offset. With the data plane on the payload is gathered
// straight into the target window memory.
func (w *Writer) put(r int, bufID int64, pc putPiece, deposit bool, dataErr *error) (free int64) {
	var fill func(dst []byte)
	if w.pl != nil {
		lo, hi := storage.SpanAll(w.plan.parts[w.part].flush[r].segs)
		fill = func(dst []byte) {
			if n := w.pl.Gather(dst, lo, hi); n != int64(len(dst)) && *dataErr == nil {
				*dataErr = fmt.Errorf("core: round %d gather produced %d bytes, plan expects %d", r, n, len(dst))
			}
		}
	}
	off := bufID*w.cfg.BufferSize + pc.bufOff
	if deposit {
		free, _ = w.win.StagePut(w.tp.leaderLocal, off, pc.bytes, fill)
		return free
	}
	return w.win.PutGather(w.aggLocal, off, pc.bytes, fill)
}

// spanPut issues a vertex's coalesced put for round r: the span as already
// assembled in this rank's own window — members' staged deposits and
// children's forwarded spans, both published before this runs (the node
// fence and the deeper level's fence) — with the rank's own pieces gathered
// fresh over their slots. Returns the put's deferred injection hold and the
// bytes sent.
func (w *Writer) spanPut(r int, bufID int64, st roundStep, own []putPiece, dataErr *error) (free, sent int64) {
	lo, hi := st.lo, st.hi
	if hi <= lo {
		return 0, 0
	}
	var fill func(dst []byte)
	if w.pl != nil {
		base := bufID * w.cfg.BufferSize
		window := w.win.LocalData()[base+lo : base+hi]
		flo, fhi := storage.SpanAll(w.plan.parts[w.part].flush[r].segs)
		fill = func(dst []byte) {
			// The window holds every deposit and forward over the span; the
			// rank's own slots hold garbage there and are overwritten by the
			// gathers, which together cover the span exactly.
			copy(dst, window)
			for _, opc := range own {
				sub := dst[opc.bufOff-lo:][:opc.bytes]
				if n := w.pl.Gather(sub, flo, fhi); n != opc.bytes && *dataErr == nil {
					*dataErr = fmt.Errorf("core: round %d span gather produced %d bytes, plan expects %d", r, n, opc.bytes)
				}
			}
		}
	}
	free = w.win.PutGather(st.to, bufID*w.cfg.BufferSize+lo, hi-lo, fill)
	if st.count {
		w.tp.msgs[max(st.level, 1)]++
	}
	return free, hi - lo
}
