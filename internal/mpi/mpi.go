// Package mpi implements a simulated MPI runtime over the discrete-event
// engine in internal/sim.
//
// Each MPI rank is a sim proc with its own virtual clock. The package
// provides the subset of MPI-2/MPI-3 that the two I/O paths consume:
//
//   - communicators with Split, plus Carve for a communicator built inside
//     a rendezvous the members already pay for;
//   - collectives (Barrier, Bcast, Allreduce with MINLOC and MAXLOC, and
//     user-defined Collective/CollectivePriced/CollectiveThenBarrier) with
//     LogP-style analytic costs — collectives are the control plane, the
//     measured data plane always moves through the fabric;
//   - one-sided communication: windows with PutGather, StagePut,
//     GetScatter and fence epochs, the transport TAPIOCA uses for
//     aggregation, moving virtual bytes through a netsim.Fabric (so
//     congestion is real).
//
// Collectives and fences wait at one rendezvous, the epoch-numbered gate
// (gate.go): the last arriver computes and releases every waiter at one
// time. A waiter can be carried, still parked, into the next barrier.
//
// Collective payloads are small control values that ride along for
// algorithmic correctness (e.g. election costs); bulk data is a virtual byte
// count, with real bytes only when a put's fill writes them.
package mpi

import (
	"fmt"
	"math"

	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// Config describes a simulated MPI job.
type Config struct {
	// Ranks is the total number of MPI processes.
	Ranks int
	// RanksPerNode maps ranks to nodes block-wise (rank r → node
	// r/RanksPerNode) unless NodeOf is set. Default 1.
	RanksPerNode int
	// NodeOf overrides the rank→node mapping.
	NodeOf func(rank int) int
	// Fabric carries all one-sided traffic. Required.
	Fabric *netsim.Fabric
	// Engine to run on; one is created if nil.
	Engine *sim.Engine
	// Recorder is the optional flight recorder. When set it is attached to
	// the engine and fabric, and rank procs are assigned trace tracks
	// (pid = compute node, tid = world rank).
	Recorder *obs.Recorder
}

// callOverhead is the per-call MPI software overhead in ns: 1.2 µs.
const callOverhead int64 = 1200

// World is the simulated MPI job: the scheduler-facing handle that owns all
// rank procs and communicator state.
type World struct {
	cfg    Config
	eng    *sim.Engine
	fabric *netsim.Fabric
	nodeOf []int
	nextID int
	// collHops is the per-round hop estimate of the analytic collective
	// cost model (see collectiveHops).
	collHops int
}

// Run spawns cfg.Ranks procs, each executing body with its own world
// communicator handle, and runs the simulation to completion. It returns
// the engine (for clock inspection) and any simulation error.
func Run(cfg Config, body func(*Comm)) (*sim.Engine, error) {
	w, world, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	// Rank procs all share the literal name "rank": diagnostics print the
	// proc id, which equals the world rank (spawn order), and per-rank
	// Sprintf names would cost an allocation per rank per job at scale.
	for r := 0; r < cfg.Ranks; r++ {
		c := world.handle(r)
		node := w.nodeOf[r]
		w.eng.Spawn("rank", func(p *sim.Proc) {
			c.p = p
			p.SetTraceID(int32(node), int32(c.WorldRank()))
			body(c)
		})
	}
	return w.eng, w.eng.Run()
}

// NewWorld builds the world and its communicator without spawning procs;
// callers that need custom per-rank bodies use this directly.
func NewWorld(cfg Config) (*World, *commShared, error) {
	if cfg.Ranks <= 0 {
		return nil, nil, fmt.Errorf("mpi: Ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Fabric == nil {
		return nil, nil, fmt.Errorf("mpi: Fabric is required")
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.Engine == nil {
		cfg.Engine = sim.NewEngine()
	}
	if cfg.Recorder != nil {
		cfg.Engine.SetRecorder(cfg.Recorder)
		cfg.Fabric.SetRecorder(cfg.Recorder)
	}
	w := &World{cfg: cfg, eng: cfg.Engine, fabric: cfg.Fabric, collHops: collectiveHops(cfg.Fabric.Topology())}
	w.nodeOf = make([]int, cfg.Ranks)
	nodes := cfg.Fabric.Topology().Nodes()
	for r := range w.nodeOf {
		if cfg.NodeOf != nil {
			w.nodeOf[r] = cfg.NodeOf(r)
		} else {
			w.nodeOf[r] = r / cfg.RanksPerNode
		}
		if w.nodeOf[r] < 0 || w.nodeOf[r] >= nodes {
			return nil, nil, fmt.Errorf("mpi: rank %d mapped to node %d outside topology (%d nodes)", r, w.nodeOf[r], nodes)
		}
	}
	ranks := make([]int, cfg.Ranks)
	for i := range ranks {
		ranks[i] = i
	}
	return w, w.newCommShared(ranks), nil
}

// collectiveHops estimates the typical hop count of tree edges.
func collectiveHops(t topology.Topology) int {
	switch tt := t.(type) {
	case *topology.Torus5D:
		d := 0
		for _, s := range tt.Dims {
			d += s / 2
		}
		return max(d/2, 1)
	case *topology.Dragonfly:
		return 5
	default:
		return 2
	}
}

// Fabric returns the interconnect fabric.
func (w *World) Fabric() *netsim.Fabric { return w.fabric }

// commShared is the per-communicator state shared by all member handles.
type commShared struct {
	w      *World
	id     int
	ranks  []int      // comm rank → world rank
	rv     rendezvous // the collectives' gates
	member []*Comm    // comm rank → handle

	// Node membership, computed on first use (see membership).
	nodePeers []int32 // comm rank → ranks of this comm on its node
	nodes     int     // distinct nodes hosting this comm's ranks
}

// membership fills the node-membership cache: one pass over the ranks
// instead of the O(P) scan per rank that per-rank node queries would cost.
func (s *commShared) membership() {
	if s.nodePeers != nil {
		return
	}
	perNode := make([]int32, s.w.fabric.Topology().Nodes())
	for _, wr := range s.ranks {
		if perNode[s.w.nodeOf[wr]] == 0 {
			s.nodes++
		}
		perNode[s.w.nodeOf[wr]]++
	}
	s.nodePeers = make([]int32, len(s.ranks))
	for r, wr := range s.ranks {
		s.nodePeers[r] = perNode[s.w.nodeOf[wr]]
	}
}

func (w *World) newCommShared(worldRanks []int) *commShared {
	s := &commShared{w: w, id: w.nextID, ranks: worldRanks, rv: rendezvous{comm: w.nextID}}
	w.nextID++
	s.member = make([]*Comm, len(worldRanks))
	return s
}

// handle returns the Comm handle for comm rank r, creating it if needed.
func (s *commShared) handle(r int) *Comm {
	if s.member[r] == nil {
		s.member[r] = &Comm{s: s, rank: r}
	}
	return s.member[r]
}

// Comm is one rank's handle on a communicator. Handles are only valid inside
// the owning rank's proc.
type Comm struct {
	s     *commShared
	rank  int
	p     *sim.Proc
	epoch int64 // the caller's next collective on this comm
}

// Rank returns the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.s.ranks) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.s.ranks[c.rank] }

// WorldRankOf returns the world rank of another rank of this communicator.
func (c *Comm) WorldRankOf(r int) int { return c.s.ranks[r] }

// Node returns the compute node hosting the caller.
func (c *Comm) Node() int { return c.s.w.nodeOf[c.WorldRank()] }

// NodeOfRank returns the compute node hosting another rank of this comm.
func (c *Comm) NodeOfRank(r int) int { return c.s.w.nodeOf[c.s.ranks[r]] }

// NodePeers returns how many ranks of this comm share rank r's compute node,
// r included. Membership is computed once per communicator.
func (c *Comm) NodePeers(r int) int {
	c.s.membership()
	return int(c.s.nodePeers[r])
}

// Nodes returns the number of distinct compute nodes hosting this comm's
// ranks.
func (c *Comm) Nodes() int {
	c.s.membership()
	return c.s.nodes
}

// Proc returns the caller's sim proc.
func (c *Comm) Proc() *sim.Proc { return c.p }

// World returns the owning world.
func (c *Comm) World() *World { return c.s.w }

// Now returns the caller's virtual time.
func (c *Comm) Now() int64 { return c.p.Now() }

// Compute advances the caller's clock by d nanoseconds of local work.
func (c *Comm) Compute(d int64) { c.p.Hold(d) }

// alpha is the per-round latency term of the analytic collective model.
func (c *Comm) alpha() int64 {
	w := c.s.w
	return callOverhead + int64(w.collHops)*w.fabric.Topology().Latency()
}

// logRounds returns ⌈log₂ n⌉ (minimum 1).
func logRounds(n int) int64 {
	if n <= 1 {
		return 1
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}
