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
// run every round whether or not the round engages the tree. A round runs
// the tree only if every vertex's subtree span is contiguous AND every
// non-root multi-member group stages that round. The second condition is
// load-bearing: a group that does not stage sends its members' pieces
// straight to the aggregator, and an ancestor forwarding a span over those
// pieces would overwrite the root's copy with garbage. Rounds that fail
// either test run node-staged for the whole partition.
//
// Every one of these decisions is a pure function of the shared plan, so
// setup makes them once per partition, inside the partition's setup
// rendezvous (see setupPartition), priced as the node split it replaces:
// buildStaging carves the node communicators, groups the members by node,
// synthesizes the tree and scans the partition's pieces once. Each node
// group's per-round roles and vertex data are shared read-only by its
// members; a rank's treeRole adds only its node-communicator handle and
// its mutable state.
//
// Staging is write-side: the read pipeline's scatter has no incast to shape.
// On an aggregator failover the partition's tree collapses to node-staged
// rooted at the new aggregator — interior phases become empty fences (the
// budget is frozen, fences are collective) — and the replay path (direct
// puts from rank-side payload buffers, recover.go) needs no tree: interior
// windows never hold the only copy of any byte.

import (
	"fmt"
	"slices"

	"tapioca/internal/mpi"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

// staging is one partition's staged-shape setup, built once by buildStaging.
type staging struct {
	nodeComms []*mpi.Comm  // local rank → its node-communicator handle
	roles     []*groupRole // local rank → its node group's role; nil: direct
}

// groupRole is one node group's part in a staged write: its per-round
// staging decisions and, under a tree with interior levels, its vertex.
// Shared read-only by the group's members.
type groupRole struct {
	leaderLocal int // partition-local rank of the group's leader
	rounds      []roundRole

	// t is the partition's synthesized tree, nil when it has no interior
	// levels; the fields below are meaningful only with t set.
	t *tree.Tree
	// fences is the partition's interior fence budget per round: tree depth
	// minus one, frozen at setup (failover must not change it).
	fences int
	// depth is the tree depth of the group's vertex.
	depth int
	// diverted: the vertex's coalesced put waits for the interior levels —
	// it has children, or sits below depth 1.
	diverted bool
	// parentLocal is the partition-local rank the vertex forwards to: the
	// aggregator itself when the parent is the root vertex, else the parent
	// group's leader.
	parentLocal int
}

// treeRole is one rank's role in a staged write: its node group's shared
// role plus its own node-communicator handle and mutable state.
type treeRole struct {
	*groupRole
	nodeComm *mpi.Comm // node-scoped sub-communicator within the partition
	leader   bool
	// collapsed is set by failover: the tree degrades to node-staged under
	// the new root and interior phases turn into empty fences.
	collapsed bool
	// msgs counts coalesced vertex sends by sender depth (index 0 unused).
	msgs []int64
}

// roundRole is a node group's part in one round.
type roundRole struct {
	staged   bool  // the group stages this round
	engaged  bool  // the interior levels run this round (partition-wide)
	lo, hi   int64 // staged: the group's contiguous bufOff span
	vlo, vhi int64 // engaged: the group vertex's subtree span
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
	case treed && tr.leader && tr.diverted:
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

// buildStaging builds the partition's staged-shape setup from the shared
// plan, once for all members. It carves the node communicators in ascending
// node order (the order a Split colored by node creates them in), groups the members by node in
// first-appearance order, synthesizes the tree when the shape has interior
// levels and the node mapping allows one, and scans the partition's pieces
// once for every group's per-round roles. A group that can never stage, in
// a partition without interior levels, gets no role: its members put
// directly every round.
func (w *Writer) buildStaging(shape tree.Shape, pp *partPlan) *staging {
	pc := w.pc
	n := pp.rankN
	groupOf := make([]int, n)
	var members [][]int // per group, ascending local ranks
	index := map[int]int{}
	for l := 0; l < n; l++ {
		node := pc.NodeOfRank(l)
		g, ok := index[node]
		if !ok {
			g = len(members)
			index[node] = g
			members = append(members, nil)
		}
		groupOf[l] = g
		members[g] = append(members[g], l)
	}
	ng := len(members)
	st := &staging{nodeComms: make([]*mpi.Comm, n), roles: make([]*groupRole, n)}
	byNode := make([]int, ng)
	for g := range byNode {
		byNode[g] = g
	}
	slices.SortFunc(byNode, func(a, b int) int { return pc.NodeOfRank(members[a][0]) - pc.NodeOfRank(members[b][0]) })
	for _, g := range byNode {
		for k, h := range pc.Carve(members[g]) {
			st.nodeComms[members[g][k]] = h
		}
	}

	var t *tree.Tree
	if !shape.Degenerate() {
		t = w.buildTree(shape, pp, ng)
	}
	aggNode := pc.NodeOfRank(pp.agg)
	roles := make([]groupRole, ng)
	stages := make([]bool, ng)
	for g, ms := range members {
		stages[g] = len(ms) > 1 && pc.NodeOfRank(ms[0]) != aggNode
		roles[g].leaderLocal = ms[0]
		if t == nil {
			continue
		}
		// Every group is one vertex: buildTree requires each node's members
		// to be one run of local ranks.
		rl := &roles[g]
		rl.t, rl.fences, rl.depth = t, t.Levels-1, t.Depth[g]
		hasChild := slices.Contains(t.Parent, g)
		rl.diverted = rl.depth >= 1 && (hasChild || rl.depth >= 2)
		if p := t.Parent[g]; p == t.Root {
			rl.parentLocal = pp.agg
		} else if p >= 0 {
			rl.parentLocal = members[p][0]
		}
	}

	// Cursors walk the shared piece arena, rounds ascending. Each piece
	// folds into its own group's span (the staging contiguity test) and,
	// under a tree, into every ancestor vertex's subtree span. Without a
	// tree, only the groups that can stage are scanned.
	cursors := make([][]putPiece, n)
	for l := range cursors {
		if t != nil || stages[groupOf[l]] {
			cursors[l] = w.plan.piecesOf(pp.rankLo + l)
		}
	}
	rounds := make([]roundRole, ng*pp.rounds)
	for g := range roles {
		roles[g].rounds = rounds[g*pp.rounds : (g+1)*pp.rounds]
	}
	used := make([]bool, ng)
	spans := make([]span, 2*ng)
	gs, vs := spans[:ng], spans[ng:] // own-group spans, subtree spans
	for r := 0; r < pp.rounds; r++ {
		clear(spans)
		for l, pieces := range cursors {
			g := groupOf[l]
			for len(pieces) > 0 && pieces[0].round == r {
				p := pieces[0]
				pieces = pieces[1:]
				gs[g].add(p)
				if t != nil {
					for a := g; a >= 0; a = t.Parent[a] {
						vs[a].add(p)
					}
				}
			}
			cursors[l] = pieces
		}
		engaged := t != nil
		for v := 0; v < ng && engaged; v++ {
			// Non-root multi-member groups must stage this round or their
			// members' pieces bypass the tree.
			engaged = !vs[v].gapped() && (v == t.Root || len(members[v]) < 2 || !gs[v].gapped())
		}
		for g := range roles {
			rr := &roles[g].rounds[r]
			if s := gs[g]; stages[g] && s.total > 0 && !s.gapped() {
				rr.staged, rr.lo, rr.hi = true, s.lo, s.hi
				used[g] = true
			}
			rr.engaged = engaged
			if v := vs[g]; t != nil && v.total > 0 {
				rr.vlo, rr.vhi = v.lo, v.hi
			}
		}
	}
	for l, g := range groupOf {
		if t != nil || used[g] {
			st.roles[l] = &roles[g]
		}
	}
	return st
}

// buildTree synthesizes shape over the partition's node groups, weighted by
// the election table's per-member volumes, or returns nil when the node
// mapping defeats it — a node whose members are not one run of local ranks,
// so the runs outnumber the groups — or it comes out without interior
// levels. When every node is one run, the runs are the groups in
// first-appearance order.
func (w *Writer) buildTree(shape tree.Shape, pp *partPlan, groups int) *tree.Tree {
	leaders, starts := tree.Leaders(pp.members)
	if len(leaders) > groups {
		return nil
	}
	var grouper tree.Grouper
	if fab := w.c.World().Fabric(); fab != nil {
		grouper = tree.GrouperOf(fab.Topology())
	}
	t := tree.Build(shape, leaders, tree.RootLeader(starts, pp.agg), grouper)
	if t.Levels < 2 {
		return nil
	}
	return t
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
