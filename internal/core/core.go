// Package core implements TAPIOCA: topology-aware two-phase I/O with
// declared operations, pipelined aggregation buffers, and cost-model
// aggregator placement — the paper's primary contribution.
//
// The three mechanisms, mapped to the paper:
//
//  1. Declared I/O (§IV-A, Fig. 2): the application declares every upcoming
//     write up front (Init). The library orders all declared data by file
//     offset into a per-partition aggregation stream and cuts it into
//     rounds of exactly BufferSize bytes, so aggregation buffers are
//     completely filled before each flush — unlike MPI-IO, where every
//     collective call flushes its own partial buffers.
//  2. Pipelined buffers (§IV-A, Alg. 3): two buffers per aggregator; data
//     lands via one-sided puts closed by a fence, while the other buffer
//     flushes with a non-blocking write. The fence is the round barrier.
//  3. Topology-aware placement (§IV-B, Fig. 3): per partition, every rank
//     evaluates C1 (aggregation cost: Σ l·d(i,A) + ω(i,A)/B(i→A)) plus C2
//     (I/O cost: l·d(A,IO) + ω(A,IO)/B(A→IO), zero where the platform
//     hides I/O-node locality) and an Allreduce(MINLOC) elects the
//     minimum-cost rank.
//
// Session setup (Init) is a pure function of the shared plan, so the
// simulator runs it once per partition, not once per rank, and prices it as
// the collectives it replaces: one rendezvous on the world (plan build and
// partition split) and one per partition (election, window creation and,
// under a staged shape, the node split). Each rank parks twice.
//
// API note: the paper's TAPIOCA_Write is called once per declared variable;
// the library is bulk-synchronous and applications call the writes
// back-to-back. This implementation accrues the whole pipeline's virtual
// time when the last declared operation is written (Write(i) marks
// progress; WriteAll is the common path), which is timing-equivalent for
// such applications and keeps the round/fence bookkeeping in one place.
package core

import (
	"fmt"

	"tapioca/internal/cost"
	"tapioca/internal/dataplane"
	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

// Aggregator placement presets, re-exported from the shared cost engine
// (internal/cost) so existing configurations keep working. Any
// cost.Placement implementation may be plugged into Config.Placement.
var (
	// PlacementTopologyAware is the paper's cost-model election (default).
	PlacementTopologyAware = cost.TopologyAware()
	// PlacementRankOrder picks each partition's first rank (the naive
	// baseline the paper criticizes).
	PlacementRankOrder = cost.RankOrder()
	// PlacementWorst deliberately picks the highest-cost candidate — an
	// adversarial ablation bound.
	PlacementWorst = cost.Worst()
	// PlacementRandom picks a deterministic pseudo-random rank.
	PlacementRandom = cost.Random()
	// PlacementTwoLevel pre-aggregates within each node before the
	// inter-node election (Kang et al.'s intra-node direction).
	PlacementTwoLevel = cost.TwoLevel()
)

// ElectionOverhead is the local cost-model computation time charged per rank
// during Init and again on each failover re-election, in nanoseconds: 50 µs.
const ElectionOverhead int64 = 50_000

// Config tunes a TAPIOCA writer/reader.
type Config struct {
	// Aggregators is the number of aggregators == partitions
	// ("the number of aggregators defines the partition size", §IV-B).
	// Default: one per 16 ranks.
	Aggregators int
	// BufferSize is the aggregation buffer size (two are allocated per
	// aggregator). Default 16 MB.
	BufferSize int64
	// Placement selects the aggregator election strategy. Default:
	// PlacementTopologyAware.
	Placement cost.Placement
	// SingleBuffer disables double-buffering (ablation): the aggregator
	// blocks on each flush before the next round's fence.
	SingleBuffer bool
	// IntraNodeStaging selects the node-staged shape when Tree names none:
	// ranks co-located on a node deposit their round payloads into the node
	// leader's window (a shared-memory copy at memory bandwidth — never a
	// fabric message), and the leader issues a single coalesced inter-node
	// put per (node, aggregator, round) instead of one put per rank. It is
	// the same as Tree set to the staged shape; Shape resolves the two.
	IntraNodeStaging bool
	// Tree selects the aggregation shape of the write pipeline (see
	// internal/tree and treeplan.go): flat, node-staged, or a synthesized
	// tree whose node-group leaders form interior reduction levels — fan-in-k
	// relays, one relay per topology group, dimension-ordered chains — each
	// forwarding its subtree as a single coalesced put per round. Every
	// shape but flat rides on the node-staged base level. Nil, or the flat
	// shape, defers to IntraNodeStaging.
	Tree *tree.Shape
	// Faults attaches a deterministic fault plan (see internal/fault):
	// aggregator deaths and round corruption are decided here; store and
	// network faults additionally require the fabric/storage wrappers to
	// carry the same plan. Nil (the default) leaves every fault path
	// compiled out of the session — the zero-fault pipeline is byte-
	// identical to a session that never heard of faults.
	Faults *fault.Plan
	// Recovery arms the self-healing machinery under Faults: bounded retry
	// with virtual-time backoff, aggregator failover with §IV-B re-election
	// and round replay, degraded-mode writes past a dead burst-buffer tier,
	// and verify-and-repair of corrupted extents. False with Faults set
	// means faults inject but nothing recovers: losses are counted, and a
	// dead aggregator deadlocks its partition (diagnosed by the engine).
	Recovery bool
}

// ApplyDefaults resolves the zero-value fields to the library defaults for a
// session over the given rank count — the same resolution New performs, made
// public so tools (the autotuner, reports) can inspect what a configuration
// will actually run with.
func (c *Config) ApplyDefaults(ranks int) {
	if c.BufferSize <= 0 {
		c.BufferSize = 16 << 20
	}
	if c.Aggregators <= 0 {
		c.Aggregators = ranks / 16
	}
	if c.Aggregators < 1 {
		c.Aggregators = 1
	}
	if c.Aggregators > ranks {
		c.Aggregators = ranks
	}
	if c.Placement == nil {
		c.Placement = PlacementTopologyAware
	}
}

// Shape resolves the aggregation shape the write pipeline runs: Tree when it
// names a shape other than flat, otherwise node-staged when IntraNodeStaging
// is set, otherwise flat.
func (c *Config) Shape() tree.Shape {
	if c.Tree != nil && c.Tree.Kind != tree.Flat {
		return *c.Tree
	}
	if c.IntraNodeStaging {
		return tree.Shape{Kind: tree.NodeStaged}
	}
	return tree.Shape{Kind: tree.Flat}
}

func (c *Config) setDefaults(comm *mpi.Comm) {
	c.ApplyDefaults(comm.Size())
}

// Writer is one rank's handle on a TAPIOCA collective I/O session against
// one file. Create with New, declare with Init, then Write/WriteAll or
// Read/ReadAll. A session performs either writes or reads, not both.
type Writer struct {
	c   *mpi.Comm
	sys storage.System
	f   *storage.File
	cfg Config

	plan     *plan
	pc       *mpi.Comm // partition sub-communicator
	win      *mpi.Win  // window over the aggregator's two buffers
	part     int       // my partition index
	aggLocal int       // aggregator's rank within the partition comm

	written int // count of declared ops already marked written
	nops    int
	isAgg   bool
	ran     bool // zero-op session already attended the pipeline

	// pl is the rank's data plane: non-nil when InitData attached real
	// payload buffers. Phantom sessions (Init) leave it nil and move only
	// virtual byte counts.
	pl *dataplane.Plane
	// tp is the rank's role under a staged shape (see treeplan.go): nil for
	// flat sessions and for ranks that put directly every round in a
	// partition without interior tree levels.
	tp *treeRole

	// rec is the engine's flight recorder (nil when observability is off;
	// cached by InitData so the pipeline pays one nil check per phase
	// boundary, never a lookup).
	rec *obs.Recorder

	// ladder resolves the tier each flush is issued on under Config.Faults,
	// holding the sticky switch to the fallback tier (see recover.go).
	ladder storage.Ladder

	stats Stats
}

// Stats reports what a session did from this rank's perspective.
type Stats struct {
	// Partition is this rank's partition index.
	Partition int
	// Rounds is the partition's aggregation round count.
	Rounds int
	// BytesPut counts bytes this rank put into aggregation buffers.
	BytesPut int64
	// BytesFlushed counts bytes this rank flushed to storage (aggregators).
	BytesFlushed int64
	// Flushes counts buffer flushes issued by this rank.
	Flushes int64
	// AggregatorWorldRank is the elected aggregator's world rank.
	AggregatorWorldRank int
	// ElectionCost is this rank's own C1+C2 candidacy cost in seconds
	// (cost-model placements only).
	ElectionCost float64
	// Placement names the strategy that ran the election.
	Placement string

	// TreeLevels and TreeFanIn describe the synthesized aggregation tree of
	// this rank's partition (Config.Tree sessions with interior levels only;
	// zero otherwise). TreeLevelMessages[d] counts the coalesced inter-node
	// sends this rank issued from tree depth d (index 0 unused).
	TreeLevels        int
	TreeFanIn         int
	TreeLevelMessages []int64

	// Recovery accounting (zero without Config.Faults).
	//
	// Retries counts transient-store retries this rank issued; BackoffNs is
	// the virtual backoff time they waited. Failovers counts aggregator
	// failovers this rank's partition performed (every member reports its
	// partition's failovers); ReplayedRounds the rounds this rank replayed
	// as the replacement aggregator. DegradedFlushes counts flushes served
	// by the degraded fallback tier, RepairedExtents the corrupt extents
	// scrubbed and rewritten, and LostFlushes/LostBytes the flushes absorbed
	// as data loss because no recovery path remained.
	Retries         int64
	BackoffNs       int64
	Failovers       int64
	ReplayedRounds  int64
	DegradedFlushes int64
	RepairedExtents int64
	LostFlushes     int64
	LostBytes       int64
}

// New creates a TAPIOCA session on comm for the given storage file.
func New(c *mpi.Comm, sys storage.System, f *storage.File, cfg Config) *Writer {
	cfg.setDefaults(c)
	return &Writer{c: c, sys: sys, f: f, cfg: cfg, ladder: storage.NewLadder(sys, cfg.Recovery)}
}

// Stats returns this rank's session statistics.
func (w *Writer) Stats() Stats { return w.stats }

// Aggregator reports whether this rank was elected aggregator.
func (w *Writer) Aggregator() bool { return w.isAgg }

// Rounds returns the number of aggregation rounds of this rank's partition.
func (w *Writer) Rounds() int {
	if w.plan == nil {
		return 0
	}
	return w.plan.parts[w.part].rounds
}

// File returns the underlying storage file.
func (w *Writer) File() *storage.File { return w.f }

// Init declares the upcoming operations: declared[i] is this rank's file
// access pattern for the i-th TAPIOCA_Write/Read call. Collective. It
// builds the global round schedule, splits partition communicators, elects
// aggregators, and allocates the RMA windows (see InitData). Sessions
// initialized with Init run in phantom mode: only virtual byte counts move
// (the paper-scale default); use InitData to carry real payload bytes.
func (w *Writer) Init(declared [][]storage.Seg) error {
	return w.InitData(declared, nil)
}

// InitData is Init with the data plane enabled: data[i] holds declared[i]'s
// payload bytes packed in segment enumeration order. For a write session the
// buffers are sources; for a read session the same buffers are filled by
// Read/ReadAll. Every rank of the communicator must pass payload buffers (or
// every rank none — data-plane mode is a collective property of the
// session). The aggregation pipeline then moves the actual bytes: puts copy
// into real aggregator window memory, flushes land in the file's backing
// store (a MemStore is attached on first use; see storage.File.SetStore),
// and DataChecksum exposes the end-to-end verification hook.
//
// Setup runs once per partition inside two priced rendezvous: a world one
// whose release is the tapioca-init collective's price chained with the
// partition Split's, and a partition one (setupPartition) whose release
// chains the election compute, the election's reduction, WinCreate and,
// under a staged shape, the Split by node. Every member of a partition
// leaves the world rendezvous at the same instant, so the chained release
// is the release of those collectives run one after another: virtual time
// is the same as a per-rank setup's.
func (w *Writer) InitData(declared [][]storage.Seg, data [][]byte) error {
	if w.plan != nil {
		return fmt.Errorf("core: Init called twice on writer for %q", w.f.Name)
	}
	if data != nil {
		pl, err := dataplane.New(declared, data)
		if err != nil {
			return err
		}
		w.pl = pl
	}
	c := w.c
	w.rec = c.Proc().Recorder()
	w.nops = len(declared)
	// Flatten this rank's declared segments; the schedule orders by file
	// offset, so per-call boundaries don't matter to it.
	var mine []storage.Seg
	for _, segs := range declared {
		for _, s := range segs {
			if !s.Empty() {
				mine = append(mine, s)
			}
		}
	}
	bytes := int64(32*len(mine) + 16)
	unit := w.sys.OptimalUnit(w.f)
	withData := w.pl != nil
	// The world rendezvous: the tapioca-init collective (a tree over the
	// last arriver's segment list) plus the Split into partitions.
	w.plan = c.CollectivePriced("tapioca-init", mine, func(contribs []any, maxT int64) (any, int64) {
		all := make([][]storage.Seg, len(contribs))
		for i, x := range contribs {
			if x != nil {
				all[i] = x.([]storage.Seg)
			}
		}
		p := buildPlan(all, w.cfg.Aggregators, w.cfg.BufferSize, unit, withData)
		carvePartitions(c, p)
		return p, c.TreeCost(c.TreeCost(maxT, bytes), 8)
	}).(*plan)
	// A data-plane-mode mismatch (some ranks passed payload buffers, others
	// did not) is diagnosed here but reported only after the partition's
	// setup rendezvous: it involves every member, so bailing early would
	// hang the agreeing ranks instead of surfacing the error.
	var modeErr error
	if w.plan.withData != withData {
		modeErr = fmt.Errorf("core: data-plane mode is collective — rank %d passed payload buffers %v but the session plan was built with %v",
			c.Rank(), withData, w.plan.withData)
		if !w.plan.withData {
			w.pl = nil // the plan has no layouts; run this rank phantom
		}
	}

	w.part = w.plan.partOf[c.Rank()]
	pp := &w.plan.parts[w.part]
	w.pc = c.Adopt(pp.comms[c.Rank()-pp.rankLo])
	// The partition rendezvous (see setupPartition).
	w.pc.CollectivePriced("tapioca-setup", nil, func(_ []any, maxT int64) (any, int64) {
		return nil, w.setupPartition(pp, maxT)
	})
	local := w.pc.Rank()
	w.aggLocal = pp.agg
	w.isAgg = local == pp.agg
	w.win = w.pc.AdoptWin(pp.win)
	w.stats.Partition = w.part
	w.stats.Placement = w.cfg.Placement.Name()
	w.stats.Rounds = pp.rounds
	w.stats.AggregatorWorldRank = w.pc.WorldRankOf(pp.agg)
	w.stats.ElectionCost = pp.costs[local]
	if st := pp.staging; st != nil && st.roles[local] != nil {
		w.tp = &treeRole{groupRole: st.roles[local], nodeComm: w.pc.Adopt(st.nodeComms[local]),
			leader: local == st.roles[local].leaderLocal}
		if t := w.tp.t; t != nil {
			w.tp.msgs = make([]int64, t.Levels+1)
			w.stats.TreeLevels = t.Levels
			w.stats.TreeFanIn = t.MaxFanIn
		}
	}
	return modeErr
}

// Write marks the i-th declared operation written. When the final declared
// operation arrives, the full aggregation pipeline executes (see the
// package comment for why). Collective across the communicator.
func (w *Writer) Write(i int) error { return w.mark("Write", i, w.runWrite) }

// WriteAll performs all declared writes. A rank that declared no operations
// still takes part in its partition's session (the closing barrier, and
// every fence under the shapes that keep full participation), so WriteAll
// is required on every rank even when a rank contributes nothing.
func (w *Writer) WriteAll() error { return w.markAll("Write", w.runWrite) }

// Read marks the i-th declared operation for reading; the pipeline runs on
// the last one, mirroring Write. In a data-plane session the payload
// buffers passed to InitData are filled once the final operation completes.
func (w *Writer) Read(i int) error { return w.mark("Read", i, w.runRead) }

// ReadAll performs all declared reads, with the same zero-operation
// participation contract as WriteAll.
func (w *Writer) ReadAll() error { return w.markAll("Read", w.runRead) }

// mark validates and records the i-th declared operation, running the
// pipeline (run) once the last one is marked. Misuse returns a descriptive
// error: the session must be initialized, i must name a declared operation,
// and operations complete in declared order.
func (w *Writer) mark(verb string, i int, run func() error) error {
	if w.plan == nil {
		return fmt.Errorf("core: %s(%d) before Init on writer for %q", verb, i, w.f.Name)
	}
	if i < 0 || i >= w.nops {
		return fmt.Errorf("core: %s(%d) out of range (%d operations declared)", verb, i, w.nops)
	}
	if i != w.written {
		return fmt.Errorf("core: %s(%d) out of declared order (next is %d)", verb, i, w.written)
	}
	w.written++
	if w.written == w.nops {
		return run()
	}
	return nil
}

// markAll marks every remaining declared operation; a zero-operation rank
// runs the pipeline once on its own.
func (w *Writer) markAll(verb string, run func() error) error {
	if w.plan == nil {
		return fmt.Errorf("core: %sAll before Init on writer for %q", verb, w.f.Name)
	}
	if w.nops == 0 {
		if w.ran {
			return nil
		}
		w.ran = true
		return run()
	}
	for i := w.written; i < w.nops; i++ {
		if err := w.mark(verb, i, run); err != nil {
			return err
		}
	}
	return nil
}

// DataChecksum returns the CRC-64/ECMA of this rank's payload bytes in
// file-offset order, or 0 for phantom sessions. A write session's checksum
// equals storage.File.StoreChecksum over the same extents and the checksum
// of a read session that declared the same pattern — the end-to-end
// verification contract.
func (w *Writer) DataChecksum() uint64 {
	if w.pl == nil {
		return 0
	}
	return w.pl.Checksum()
}
