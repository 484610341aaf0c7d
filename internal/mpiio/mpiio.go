// Package mpiio implements ROMIO-style MPI-IO over the simulated MPI runtime
// and storage systems: independent reads/writes with data sieving, and
// collective reads/writes with generic two-phase I/O (collective buffering).
//
// This is the paper's comparison baseline. Its deliberate limitations are
// exactly the ones TAPIOCA (internal/core) removes:
//
//   - every collective call aggregates only its own byte range, so a
//     sequence of calls (one per variable) flushes partially-filled
//     aggregation buffers (paper Fig. 2);
//   - aggregation and I/O phases of a round are synchronous — no
//     double-buffered overlap;
//   - with the classic hints, aggregator placement ignores the interconnect
//     topology (rank order / node spread / bridge-first heuristics). The
//     AggrTopologyAware and AggrTwoLevel strategies lift that limitation by
//     reusing TAPIOCA's cost engine (internal/cost) for the tuned baseline.
package mpiio

import (
	"fmt"
	"sort"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

// Aggregator placement strategies for collective buffering, re-exported from
// the shared cost engine (internal/cost). Any cost.Placement works as
// Hints.Strategy; strategies implementing cost.SetStrategy pick the whole
// set with the classic ROMIO heuristics, the rest run one cost-model
// election per aggregator partition.
var (
	// AggrNodeSpread picks the first rank of each node in node order (the
	// common MPICH/Cray default).
	AggrNodeSpread = cost.NodeSpread()
	// AggrRankOrder picks ranks 0..cb_nodes-1 regardless of node, which can
	// stack all aggregators on the first nodes.
	AggrRankOrder = cost.RankOrder()
	// AggrBridgeFirst prefers ranks on BG/Q bridge nodes, then spreads
	// (the MPICH strategy the paper describes for Mira).
	AggrBridgeFirst = cost.BridgeFirst()
	// AggrTopologyAware elects one aggregator per contiguous rank block by
	// minimizing the paper's C1+C2 cost model — the first scenario where
	// the tuned ROMIO baseline sees the interconnect. Volumes are unknown
	// at open time, so members carry uniform weights and the election
	// optimizes hop distance.
	AggrTopologyAware = cost.TopologyAware()
	// AggrTwoLevel is the intra-node variant (Kang et al.): members
	// pre-aggregate within their node and one leader per node competes in
	// the inter-node election.
	AggrTwoLevel = cost.TwoLevel()
)

// TunedHints converts a TAPIOCA aggregation configuration into the
// equivalent collective-buffering hints: cb_nodes and cb_buffer_size follow
// the aggregator count and buffer size, the placement strategy carries over
// unchanged (both paths share internal/cost), and domains are aligned and
// stripe-cyclic as every tuned ROMIO configuration in the paper is. This is
// how the autotuner's pick (internal/tune) reaches the baseline I/O path.
func TunedHints(aggregators int, bufSize int64, strategy cost.Placement) Hints {
	return Hints{
		CBNodes:       aggregators,
		CBBufferSize:  bufSize,
		Strategy:      strategy,
		AlignDomains:  true,
		CyclicDomains: true,
	}
}

// Hints mirror the ROMIO controls the paper tunes (cb_nodes,
// cb_buffer_size, aggregator placement, data sieving).
type Hints struct {
	// CBNodes is the number of collective-buffering aggregators.
	// Default: one per compute node hosting ranks.
	CBNodes int
	// CBBufferSize is the per-aggregator staging buffer. Default 16 MB.
	CBBufferSize int64
	// Strategy selects the aggregator placement strategy. Default:
	// AggrNodeSpread.
	Strategy cost.Placement
	// AlignDomains aligns file domains to the file system's optimal unit
	// (stripe/block), as tuned ROMIO does. Default off (set by the
	// "optimized" configurations).
	AlignDomains bool
	// CyclicDomains assigns file domains stripe-cyclically (stripe s →
	// aggregator s mod cb_nodes) instead of contiguously — the Lustre
	// driver behaviour of Cray MPI-IO/ROMIO, which keeps every OST busy
	// each round and pins each aggregator to one OST when cb_nodes is a
	// multiple of the stripe count. The stripes are the file system's
	// optimal unit, so they are unit-aligned whether or not AlignDomains is
	// set. Only a system reporting a unit ≤ 0 (no built-in one does) falls
	// back to block domains.
	CyclicDomains bool
	// DisableSieving turns off write data sieving (read-modify-write for
	// sparse rounds); sparse data is then written run-by-run.
	DisableSieving bool
	// TreePlan selects the aggregation exchange's shape, in internal/tree
	// shape syntax. "staged" routes it through a node-local staging hop:
	// co-located ranks deposit their round pieces into a node leader's
	// buffer at memory bandwidth and one coalesced fabric message per (node,
	// aggregator) carries the node total, instead of one message per rank
	// (the data-plane counterpart of the AggrTwoLevel election, which prices
	// candidates assuming node-coalesced traffic). Tree shapes ("fanin:4",
	// "group", "chain", ...) ride on that staging hop and route the
	// coalesced node messages through interior relays instead of straight
	// to the aggregator. Default "" (or "flat"): the classic ROMIO exchange
	// with per-rank messages. An unparsable plan is reported by the first
	// collective call.
	TreePlan string
	// RecvOverhead is the aggregator-side CPU cost per received piece in
	// the two-sided aggregation exchange (message matching + unpacking on
	// the slow A2/KNL cores). TAPIOCA's one-sided puts bypass this — one of
	// the paper's arguments for RMA. Default 40 µs.
	RecvOverhead int64
	// CopyRate is the aggregator's single-core staging-buffer assembly
	// bandwidth (bytes/s, including datatype processing). Default 0.8 GB/s.
	CopyRate float64
}

func (h *Hints) setDefaults(c *mpi.Comm) {
	if h.CBBufferSize <= 0 {
		h.CBBufferSize = 16 << 20
	}
	if h.RecvOverhead <= 0 {
		h.RecvOverhead = 40_000
	}
	if h.CopyRate <= 0 {
		h.CopyRate = 0.8e9
	}
	if h.CBNodes <= 0 {
		h.CBNodes = c.Nodes()
	}
	if h.CBNodes > c.Size() {
		h.CBNodes = c.Size()
	}
	if h.Strategy == nil {
		h.Strategy = AggrNodeSpread
	}
}

// File is one rank's handle on an MPI-IO file.
type File struct {
	c      *mpi.Comm
	sys    storage.System
	f      *storage.File
	hints  Hints
	aggrs  []int // comm ranks acting as aggregators
	myAgg  int   // index in aggrs if this rank is an aggregator, else -1
	closed bool  // set by Close; later I/O calls error instead of running

	ac         *mpi.Comm        // aggregators' sub-communicator; nil on non-aggregators
	order      []int            // booking order of comm ranks (nil: comm-rank order)
	extScratch []storage.Extent // reused per-round batched store extents
	shape      tree.Shape       // parsed Hints.TreePlan (zero value: flat)
	treeErr    error            // deferred Hints.TreePlan parse error

	// degraded, once set, replaces sys for round I/O: the fallback tier the
	// handle switches to when a fault plan takes the primary down (recover.go).
	degraded storage.System
}

// Open creates (on rank 0) and opens a file collectively.
func Open(c *mpi.Comm, sys storage.System, name string, opt storage.FileOptions, hints Hints) *File {
	var shape tree.Shape
	var treeErr error
	if hints.TreePlan != "" {
		var err error
		if shape, err = tree.ParseShape(hints.TreePlan); err != nil {
			treeErr = fmt.Errorf("mpiio: tree plan: %w", err)
		}
	}
	hints.setDefaults(c)
	res := c.Bcast(0, 64, func() any {
		if c.Rank() != 0 {
			return nil
		}
		f := sys.Lookup(name)
		if f == nil {
			f = sys.Create(name, opt)
		}
		return f
	}())
	f := res.(*storage.File)
	set := chooseAggregators(c, hints, sys)
	fh := &File{c: c, sys: sys, f: f, hints: hints, aggrs: set.ranks, myAgg: -1,
		order: set.order, shape: shape, treeErr: treeErr}
	for i, a := range set.ranks {
		if a == c.Rank() {
			fh.myAgg = i
			fh.ac = c.Adopt(set.comms[i])
		}
	}
	return fh
}

// treeHorizons books the staged node messages along the tree plan's relay
// hops instead of straight to each aggregator. Per aggregator, the staged
// nodes (node-sorted, with a zero-byte leader standing in for the aggregator
// node as root) form one reduction tree; the exchange walks it deepest level
// first, each vertex forwarding its whole subtree's bytes to its parent once
// its own deposit and every child's forward have landed. Message count per
// round is unchanged — every staged node still sends exactly once — only the
// hops and the payload sizes follow the tree. A structurally degenerate tree
// (fewer than two levels) books the plain direct message, byte-identically.
// keys is the node-sorted group-key order, so every fabric booking below is
// deterministic.
func (fh *File) treeHorizons(fab *netsim.Fabric, groups map[[2]int]*stageGroup, keys [][2]int, h []int64) {
	grouper := tree.GrouperOf(fab.Topology())
	for agg := range fh.aggrs {
		aggNode := fh.c.NodeOfRank(fh.aggrs[agg])
		var leaders []tree.Leader
		var ready []int64
		root := -1
		for _, k := range keys {
			if k[1] != agg {
				continue
			}
			if root < 0 && k[0] > aggNode {
				root = len(leaders)
				leaders = append(leaders, tree.Leader{Node: aggNode})
				ready = append(ready, 0)
			}
			leaders = append(leaders, tree.Leader{Node: k[0], Bytes: groups[k].bytes})
			ready = append(ready, groups[k].at)
		}
		if len(leaders) == 0 {
			continue
		}
		if root < 0 {
			root = len(leaders)
			leaders = append(leaders, tree.Leader{Node: aggNode})
			ready = append(ready, 0)
		}
		t := tree.Build(fh.shape, leaders, root, grouper)
		sub := make([]int64, len(leaders))
		for v, l := range leaders {
			for a := v; a >= 0; a = t.Parent[a] {
				sub[a] += l.Bytes
			}
		}
		for d := t.Levels; d >= 1; d-- {
			for v := range leaders {
				if t.Depth[v] != d || sub[v] == 0 {
					continue
				}
				p := t.Parent[v]
				_, arr := fab.Reserve(ready[v], leaders[v].Node, leaders[p].Node, sub[v])
				if arr > ready[p] {
					ready[p] = arr
				}
			}
		}
		if ready[root] > h[agg] {
			h[agg] = ready[root]
		}
	}
}

// Storage returns the underlying storage file (for verification).
func (fh *File) Storage() *storage.File { return fh.f }

// Aggregators returns the comm ranks acting as collective-buffering
// aggregators.
func (fh *File) Aggregators() []int { return append([]int(nil), fh.aggrs...) }

// aggSet is what Open learns from rank 0: the collective-buffering
// aggregators, the handles of their sub-communicator (one per aggregator,
// in aggregator order), and the round driver's booking order.
type aggSet struct {
	ranks []int
	comms []*mpi.Comm
	order []int
}

// chooseAggregators picks the collective-buffering aggregator set. Every
// strategy — the classic ROMIO heuristics (cost.SetStrategy) and the
// cost-model elections alike — is deterministic and communicator-wide, so
// rank 0 computes the set once and broadcasts it: recomputing the O(P)
// selection on all P ranks would cost O(P²) work per open, and the Bcast's
// virtual time lands at open, outside every experiment's timed phase (real
// ROMIO likewise exchanges hints collectively at open). The aggregators'
// sub-communicator rides in the same payload, so it costs no extra
// collective.
func chooseAggregators(c *mpi.Comm, h Hints, sys storage.System) *aggSet {
	res := c.Bcast(0, int64(8*h.CBNodes), func() any {
		if c.Rank() != 0 {
			return nil
		}
		set := &aggSet{order: bookingOrder(c)}
		if ss, ok := h.Strategy.(cost.SetStrategy); ok {
			set.ranks = ss.SelectSet(&cost.SetElection{
				Nodes:  rankNodes(c),
				Want:   h.CBNodes,
				Bridge: bridgeFn(c),
			})
		} else {
			set.ranks = electAggregators(c, h, sys)
		}
		set.comms = c.Carve(set.ranks)
		return set
	}())
	return res.(*aggSet)
}

// bookingOrder returns the comm ranks in ascending world rank — the order
// rank procs run in at a shared instant, since they are spawned in world
// rank order — or nil when that is comm-rank order already (the world comm,
// and every Split keyed by rank).
func bookingOrder(c *mpi.Comm) []int {
	sorted := true
	for r := 1; r < c.Size() && sorted; r++ {
		sorted = c.WorldRankOf(r) > c.WorldRankOf(r-1)
	}
	if sorted {
		return nil
	}
	order := make([]int, c.Size())
	for r := range order {
		order[r] = r
	}
	sort.Slice(order, func(i, j int) bool { return c.WorldRankOf(order[i]) < c.WorldRankOf(order[j]) })
	return order
}

// rankNodes maps each comm rank to its compute node.
func rankNodes(c *mpi.Comm) []int {
	nodes := make([]int, c.Size())
	for r := range nodes {
		nodes[r] = c.NodeOfRank(r)
	}
	return nodes
}

// bridgeFn reports BG/Q bridge nodes for the bridge-first heuristic, or nil
// when the platform has none (the strategy then degrades to node spread).
// The bridge map materializes on first call, so strategies that never ask
// (rank order, node spread) pay nothing.
func bridgeFn(c *mpi.Comm) func(node int) bool {
	tor, ok := c.World().Fabric().Topology().(*topology.Torus5D)
	if !ok {
		return nil
	}
	var isBridge map[int]bool
	return func(node int) bool {
		if isBridge == nil {
			isBridge = map[int]bool{}
			for pset := 0; pset < tor.IONodes(); pset++ {
				br := tor.BridgeNodes(pset)
				isBridge[br[0]] = true
				isBridge[br[1]] = true
			}
		}
		return isBridge[node]
	}
}

// electAggregators partitions the comm's ranks into CBNodes contiguous
// blocks (the same rank→partition map TAPIOCA's planner uses) and elects
// one aggregator per block through the shared cost engine. Data volumes are
// unknown at open time, so members weigh in uniformly and the model
// optimizes interconnect distance; C2 still steers toward bridge-proximate
// nodes where the platform exposes I/O-node locality.
func electAggregators(c *mpi.Comm, h Hints, sys storage.System) []int {
	model := cost.MachineModel(c.World().Fabric().Distances(), sys)
	n := c.Size()
	nodes := rankNodes(c)
	out := make([]int, 0, h.CBNodes)
	for part := 0; part < h.CBNodes; part++ {
		lo := cost.PartitionStart(part, h.CBNodes, n)
		hi := cost.PartitionStart(part+1, h.CBNodes, n)
		members := make([]cost.Member, hi-lo)
		for i := range members {
			members[i] = cost.Member{Node: nodes[lo+i], Bytes: 1}
		}
		e := &cost.Election{Model: model, Members: members, Partition: part}
		out = append(out, lo+h.Strategy.Elect(e))
	}
	return out
}

// WriteAt performs an independent write of this rank's segments. Strided
// patterns use write data sieving (read-modify-write of the span) unless
// disabled, as ROMIO does for noncontiguous independent writes.
func (fh *File) WriteAt(segs []storage.Seg) error {
	return fh.WriteAtData(segs, nil)
}

// WriteAtData is WriteAt with payload bytes (packed in segment enumeration
// order) landed in the file's backing store.
func (fh *File) WriteAtData(segs []storage.Seg, data []byte) error {
	if fh.closed {
		return fmt.Errorf("mpiio: WriteAt on closed file %q", fh.f.Name)
	}
	if data != nil {
		if want := storage.TotalBytes(segs); int64(len(data)) != want {
			return fmt.Errorf("mpiio: WriteAt payload holds %d bytes, segments declare %d", len(data), want)
		}
		if err := fh.f.StoreWrite(segs, data); err != nil {
			return err
		}
	}
	if storage.TotalBytes(segs) == 0 {
		return nil
	}
	p := fh.c.Proc()
	if !fh.hints.DisableSieving && storage.TotalRuns(segs) > 1 {
		lo, hi := storage.SpanAll(segs)
		span := []storage.Seg{storage.Contig(lo, hi-lo)}
		storage.Do(p, fh.sys, fh.c.Node(), fh.f, span, storage.OpRead)
		storage.Do(p, fh.sys, fh.c.Node(), fh.f, span, storage.OpWrite)
		return nil
	}
	storage.Do(p, fh.sys, fh.c.Node(), fh.f, segs, storage.OpWrite)
	return nil
}

// ReadAt performs an independent read of this rank's segments, with read
// data sieving for strided patterns.
func (fh *File) ReadAt(segs []storage.Seg) error {
	return fh.ReadAtData(segs, nil)
}

// ReadAtData is ReadAt with dst (packed in segment enumeration order)
// filled from the file's backing store.
func (fh *File) ReadAtData(segs []storage.Seg, dst []byte) error {
	if fh.closed {
		return fmt.Errorf("mpiio: ReadAt on closed file %q", fh.f.Name)
	}
	if dst != nil {
		if want := storage.TotalBytes(segs); int64(len(dst)) != want {
			return fmt.Errorf("mpiio: ReadAt buffer holds %d bytes, segments declare %d", len(dst), want)
		}
		if err := fh.f.StoreRead(segs, dst); err != nil {
			return err
		}
	}
	if storage.TotalBytes(segs) == 0 {
		return nil
	}
	p := fh.c.Proc()
	if storage.TotalRuns(segs) > 1 {
		lo, hi := storage.SpanAll(segs)
		storage.Do(p, fh.sys, fh.c.Node(), fh.f, []storage.Seg{storage.Contig(lo, hi-lo)}, storage.OpRead)
		return nil
	}
	storage.Do(p, fh.sys, fh.c.Node(), fh.f, segs, storage.OpRead)
	return nil
}

// Close is collective (a barrier; simulated state is garbage-collected).
// Collective and independent I/O on a closed handle returns a descriptive
// error instead of running.
func (fh *File) Close() {
	fh.c.Barrier()
	fh.closed = true
}
