// Package tapioca is a Go reproduction of TAPIOCA (Tessier, Vishwanath,
// Jeannot — IEEE CLUSTER 2017): an I/O library implementing optimized
// topology-aware two-phase data aggregation for large-scale supercomputers.
//
// Because the paper's platforms (Mira, an IBM BG/Q with GPFS, and Theta, a
// Cray XC40 with Lustre) are simulated rather than physical here, the
// library bundles everything needed to reproduce the paper end to end:
// a deterministic discrete-event engine, 5-D torus and dragonfly topologies,
// a contention-aware network fabric, an MPI runtime (collectives, one-sided
// communication, two-phase MPI-IO as the baseline), GPFS and Lustre models,
// and TAPIOCA itself on top.
//
// The public surface is organized around Machines and per-rank contexts:
//
//	m := tapioca.Theta(512)
//	report, err := m.Run(16, func(ctx *tapioca.Ctx) {
//	    f := ctx.CreateFile("snapshot", tapioca.FileOptions{StripeCount: 48, StripeSize: 8 << 20})
//	    w := ctx.Tapioca(f, tapioca.Config{Aggregators: 48, BufferSize: 8 << 20})
//	    w.Init([][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())<<20, 1 << 20)}})
//	    w.WriteAll()
//	    ctx.Barrier()
//	})
//
// The two presets carry the paper's calibration of each platform (storage,
// network and MPI costs) as fixed constants. A MachineOption selects only
// what the paper varies or extends: GPFS lock sharing, dragonfly routing,
// the contention model, and a burst-buffer tier.
//
// All time is virtual: identical programs produce identical timings, and the
// paper's figures regenerate deterministically (cmd/tapiocabench).
//
// Two data modes are available. The phantom mode (Writer.Init) moves only
// virtual byte counts — what every paper-scale figure runs. The data plane
// (Writer.InitData) carries real payload bytes end to end: puts copy into
// actual aggregator window memory, flushes land in a pluggable backing
// store (File.SetStore), reads return the bytes, and CRC-64 checksums
// verify the round trip (Writer.DataChecksum, File.StoreChecksum).
package tapioca

import (
	"fmt"
	"io"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/tune"
	"tapioca/internal/workload"
)

// Seg describes a (possibly strided) file access pattern: Count runs of Len
// bytes every Stride bytes starting at Off. See Contig and Strided.
type Seg = storage.Seg

// Contig returns a contiguous access [off, off+length).
func Contig(off, length int64) Seg { return storage.Contig(off, length) }

// Strided returns a strided access: count runs of length bytes every stride
// bytes from off (an array-of-structures variable, for instance).
func Strided(off, length, stride, count int64) Seg {
	return storage.Strided(off, length, stride, count)
}

// FileOptions carries file-creation tuning (Lustre striping).
type FileOptions = storage.FileOptions

// BurstBufferConfig calibrates the burst-buffer staging tier
// (WithBurstBuffer). The zero value selects the defaults.
type BurstBufferConfig = storage.BurstBufferConfig

// Store is a pluggable backing byte store for a simulated file — the data
// plane's durable end (see File.SetStore). NewMemStore and NewFileStore
// provide the two implementations.
type Store = storage.Store

// NewMemStore returns an in-memory sparse extent store: chunks allocate on
// first write, so memory tracks the data, not the file span. It is also
// what a file attaches automatically on its first payload-carrying write.
func NewMemStore() *storage.MemStore { return storage.NewMemStore() }

// NewFileStore creates (or truncates) path as an on-disk backing store.
func NewFileStore(path string) (*storage.FileStore, error) { return storage.NewFileStore(path) }

// Config tunes a TAPIOCA session (see internal/core.Config).
type Config = core.Config

// TreeShape selects a synthesized aggregation-tree shape for Config.Tree and
// Hints.Tree, and parses from/prints to a text form (see internal/tree).
// The degenerate kinds reproduce the fixed pipelines exactly: TreeFlat is
// the default two-phase data plane, TreeNodeStaged is intra-node staging.
type TreeShape = tree.Shape

// Tree shape kinds for TreeShape.Kind.
const (
	TreeFlat       = tree.Flat
	TreeNodeStaged = tree.NodeStaged
	TreeGroup      = tree.GroupTree
	TreeChain      = tree.Chain
	TreeFanIn      = tree.FanIn
)

// ParseTreeShape parses a shape's text form ("flat", "staged", "group",
// "chain", "fanin:k").
func ParseTreeShape(s string) (TreeShape, error) { return tree.ParseShape(s) }

// Writer is a TAPIOCA collective I/O session handle.
type Writer = core.Writer

// MPIIOFile is an MPI-IO (ROMIO-style baseline) file handle.
type MPIIOFile = mpiio.File

// Placement is a pluggable aggregator-election strategy (see internal/cost):
// both Config.Placement and Hints.Strategy accept one.
type Placement = cost.Placement

// Placement strategies for Config.Placement.
var (
	PlacementTopologyAware = core.PlacementTopologyAware
	PlacementRankOrder     = core.PlacementRankOrder
	PlacementWorst         = core.PlacementWorst
	PlacementRandom        = core.PlacementRandom
	// PlacementTwoLevel pre-aggregates within each node before the
	// inter-node cost-model election (Kang et al.'s intra-node direction).
	PlacementTwoLevel = core.PlacementTwoLevel
)

// Hints tunes the MPI-IO baseline (see internal/mpiio.Hints).
type Hints = mpiio.Hints

// MPI-IO aggregator strategies for Hints.Strategy.
var (
	AggrNodeSpread  = mpiio.AggrNodeSpread
	AggrRankOrder   = mpiio.AggrRankOrder
	AggrBridgeFirst = mpiio.AggrBridgeFirst
	// AggrTopologyAware gives the tuned ROMIO baseline TAPIOCA's cost-model
	// placement: one election per aggregator block over the interconnect
	// distances.
	AggrTopologyAware = mpiio.AggrTopologyAware
	// AggrTwoLevel additionally pre-aggregates within each node before the
	// inter-node election.
	AggrTwoLevel = mpiio.AggrTwoLevel
)

// MachineOption customizes a Machine preset.
type MachineOption func(*machineConfig)

type machineConfig struct {
	lockShared    bool
	adaptiveRoute bool
	contention    int
	burst         *storage.BurstBufferConfig
}

// WithLockSharing enables the GPFS shared-lock tuning (Mira's "optimized"
// configuration in the paper's Figure 7).
func WithLockSharing() MachineOption {
	return func(c *machineConfig) { c.lockShared = true }
}

// WithAdaptiveRouting selects Valiant-style adaptive routing on the
// dragonfly (Theta's default; the paper's tuning switches to IN_ORDER
// minimal routing).
func WithAdaptiveRouting() MachineOption {
	return func(c *machineConfig) { c.adaptiveRoute = true }
}

// WithEndpointContention replaces per-link contention with NIC-endpoint
// contention only (faster, less detailed — an ablation knob).
func WithEndpointContention() MachineOption {
	return func(c *machineConfig) { c.contention = netsim.ContentionEndpoint }
}

// WithBurstBuffer stacks an NVMe burst-buffer staging tier in front of the
// machine's file system (the paper's future-work extension): writes
// complete at the buffer and drain to the PFS in the background; use
// Ctx.DrainBurstBuffer to wait for durability.
func WithBurstBuffer(cfg storage.BurstBufferConfig) MachineOption {
	return func(c *machineConfig) { c.burst = &cfg }
}

// Machine is a simulated platform: topology + network fabric + storage.
// Machines are single-use: a Run books the fabric's and storage's resource
// state, so a second Run on the same Machine returns an error; build a new
// Machine per measurement.
type Machine struct {
	name    string
	topo    topology.Topology
	fab     *netsim.Fabric
	sys     storage.System
	burst   *storage.BurstBuffer // non-nil with WithBurstBuffer
	nodes   int
	rec     *obs.Recorder   // non-nil after EnableTracing
	rebuild func() *Machine // fresh identical machine (autotune probes)
	used    bool            // Run already booked this machine's resources
}

// Mira builds a Mira-like IBM BG/Q + GPFS machine with the given compute
// node count (must be a supported partition size: 128…49152).
func Mira(nodes int, opts ...MachineOption) *Machine {
	var mc machineConfig
	for _, o := range opts {
		o(&mc)
	}
	topo := topology.MiraTorus(nodes)
	fab := netsim.New(topo, netsim.Config{Contention: mc.contention})
	var gcfg storage.GPFSConfig
	if mc.lockShared {
		gcfg.LockMode = storage.LockShared
	}
	m := &Machine{name: fmt.Sprintf("mira-%d", nodes), topo: topo, fab: fab, nodes: nodes}
	m.sys = storage.NewGPFS(topo, fab, gcfg)
	if mc.burst != nil {
		m.burst = storage.NewBurstBuffer(m.sys, *mc.burst)
		m.sys = m.burst
	}
	m.rebuild = func() *Machine { return Mira(nodes, opts...) }
	return m
}

// Theta builds a Theta-like Cray XC40 + Lustre machine with at least the
// given compute node count.
func Theta(nodes int, opts ...MachineOption) *Machine {
	var mc machineConfig
	for _, o := range opts {
		o(&mc)
	}
	routing := topology.RouteMinimal
	if mc.adaptiveRoute {
		routing = topology.RouteValiant
	}
	topo := topology.ThetaDragonfly(nodes, routing)
	fab := netsim.New(topo, netsim.Config{Contention: mc.contention})
	m := &Machine{name: fmt.Sprintf("theta-%d", nodes), topo: topo, fab: fab, nodes: nodes}
	m.sys = storage.NewLustre(topo, fab, storage.LustreConfig{})
	if mc.burst != nil {
		m.burst = storage.NewBurstBuffer(m.sys, *mc.burst)
		m.sys = m.burst
	}
	m.rebuild = func() *Machine { return Theta(nodes, opts...) }
	return m
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// EnableTracing arms the flight recorder for the machine's next Run: the
// simulation records scheduler, network, MPI, pipeline and storage spans in
// virtual time. Retrieve the trace with WriteTrace after Run returns.
func (m *Machine) EnableTracing() { m.rec = obs.NewRecorder(true) }

// WriteTrace writes the flight recording of the machine's Run in Chrome
// trace-event JSON (load it in Perfetto or chrome://tracing). It returns an
// error if EnableTracing was not called before Run.
func (m *Machine) WriteTrace(w io.Writer) error {
	if m.rec == nil {
		return fmt.Errorf("tapioca: no trace recorded (call EnableTracing before Run)")
	}
	tr := obs.NewTrace()
	tr.AddCell(m.name, m.rec)
	return tr.Write(w)
}

// Nodes returns the compute-node count.
func (m *Machine) Nodes() int { return m.nodes }

// Report summarizes a completed run.
type Report struct {
	// Elapsed is the end-to-end virtual time in seconds.
	Elapsed float64
	// Files lists per-file transfer totals.
	Files []FileReport
}

// FileReport is the per-file accounting of a run.
type FileReport struct {
	Name         string
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
}

// Run executes body on nodes×ranksPerNode simulated MPI ranks and returns a
// report. It returns an error, without running body, if the Machine has
// already run: the fabric and storage keep the earlier run's booked state,
// so a rerun would report inflated times.
func (m *Machine) Run(ranksPerNode int, body func(*Ctx)) (Report, error) {
	if m.used {
		return Report{}, fmt.Errorf("tapioca: machine %s already ran; build a new Machine per Run", m.name)
	}
	m.used = true
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	files := map[string]*storage.File{}
	eng, err := mpi.Run(mpi.Config{
		Ranks:        m.nodes * ranksPerNode,
		RanksPerNode: ranksPerNode,
		Fabric:       m.fab,
		Recorder:     m.rec,
	}, func(c *mpi.Comm) {
		body(&Ctx{c: c, m: m, files: files})
	})
	rep := Report{}
	if eng != nil {
		rep.Elapsed = sim.ToSeconds(eng.Now())
		if m.rec != nil {
			m.fab.SnapshotMetrics(m.rec.Registry(), eng.Now())
		}
	}
	for name, f := range files {
		rep.Files = append(rep.Files, FileReport{
			Name:         name,
			BytesWritten: f.BytesWritten(),
			BytesRead:    f.BytesRead(),
			WriteOps:     f.WriteOps(),
			ReadOps:      f.ReadOps(),
		})
	}
	return rep, err
}

// Ctx is one simulated rank's view of the machine.
type Ctx struct {
	c     *mpi.Comm
	m     *Machine
	files map[string]*storage.File
}

// Rank returns the caller's MPI rank.
func (x *Ctx) Rank() int { return x.c.Rank() }

// Size returns the world size.
func (x *Ctx) Size() int { return x.c.Size() }

// Node returns the caller's compute node.
func (x *Ctx) Node() int { return x.c.Node() }

// Now returns the caller's virtual time in seconds.
func (x *Ctx) Now() float64 { return sim.ToSeconds(x.c.Now()) }

// Barrier synchronizes all ranks.
func (x *Ctx) Barrier() { x.c.Barrier() }

// Compute charges d seconds of local computation.
func (x *Ctx) Compute(d float64) { x.c.Compute(sim.Seconds(d)) }

// MaxSeconds returns the maximum of v across ranks (for timing reductions).
func (x *Ctx) MaxSeconds(v float64) float64 {
	return x.c.AllreduceF64(mpi.OpMax, v)
}

// Split returns a context on a sub-communicator (color groups, ordered by
// key). Ranks passing a negative color receive nil.
func (x *Ctx) Split(color, key int) *Ctx {
	sub := x.c.Split(color, key)
	if sub == nil {
		return nil
	}
	return &Ctx{c: sub, m: x.m, files: x.files}
}

// Pset returns the caller's I/O partition id (Pset index on BG/Q); 0 when
// the platform does not expose one.
func (x *Ctx) Pset() int {
	if ion := x.m.topo.IONodeOf(x.c.Node()); ion != topology.IONUnknown {
		return ion
	}
	return 0
}

// File is a handle on a simulated file.
type File struct {
	f *storage.File
	m *Machine
}

// SetStore attaches a backing byte store for real payload bytes (the data
// plane). Without one, a MemStore is attached automatically on the first
// payload-carrying write; phantom sessions never touch a store.
func (f *File) SetStore(s Store) { f.f.SetStore(s) }

// StoreChecksum returns the CRC-64/ECMA of the stored bytes over the given
// extents — the storage end of the data plane's end-to-end verification
// (compare with Writer.DataChecksum over the same declared pattern).
func (f *File) StoreChecksum(segs []Seg) (uint64, error) { return f.f.StoreChecksum(segs) }

// CreateFile creates (or opens, if it exists) a file on the machine's file
// system. Safe to call from every rank; creation is idempotent per name.
func (x *Ctx) CreateFile(name string, opt FileOptions) *File {
	f := x.files[name]
	if f == nil {
		f = x.m.sys.Create(name, opt)
		x.files[name] = f
	}
	return &File{f: f, m: x.m}
}

// Tapioca opens a TAPIOCA session on the file over this rank's current
// communicator (collective).
func (x *Ctx) Tapioca(f *File, cfg Config) *core.Writer {
	return core.New(x.c, x.m.sys, f.f, cfg)
}

// MPIIO opens the ROMIO-style baseline on the file (collective).
func (x *Ctx) MPIIO(f *File, hints Hints) *mpiio.File {
	return mpiio.Open(x.c, x.m.sys, f.f.Name, f.f.Opt, hints)
}

// DrainBurstBuffer blocks until all background burst-buffer drains have
// reached the backing file system, returning the drain completion in
// seconds. It is a no-op (returning the current time) without a burst
// buffer.
func (x *Ctx) DrainBurstBuffer() float64 {
	if x.m.burst == nil {
		return x.Now()
	}
	return sim.ToSeconds(x.m.burst.Flush(x.c.Proc()))
}

// Workload is a portable workload descriptor for the autotuner: the
// complete declared access pattern of a collective I/O phase (see
// internal/workload.Pattern). Build one with IORWorkload/HACCWorkload or
// fill the fields directly for custom patterns.
type Workload = workload.Pattern

// IORWorkload describes the IOR-style pattern: ranks ranks each writing
// bytesPerRank contiguous bytes.
func IORWorkload(ranks int, bytesPerRank int64) Workload {
	return workload.IOR(ranks, bytesPerRank)
}

// HACCWorkload describes the HACC-IO checkpoint: 9 particle variables per
// rank, array-of-structures when aos is true, structure-of-arrays otherwise.
func HACCWorkload(ranks int, particles int64, aos bool) Workload {
	layout := workload.SoA
	if aos {
		layout = workload.AoS
	}
	return workload.HACC(ranks, particles, layout)
}

// AutotuneOption customizes an Autotune search.
type AutotuneOption func(*tune.Options)

// WithProbes enables the closed-loop mode: the top n candidates each run a
// short simulated probe (a few aggregation rounds of the real workload on a
// fresh machine) and the final pick minimizes the probe-corrected
// prediction.
func WithProbes(n int) AutotuneOption {
	return func(o *tune.Options) { o.Probes = n }
}

// WithTreeSearch adds the aggregation-tree shape as a searched dimension:
// every grid point additionally runs the internal/tree shape search (flat,
// node-staged, topology groups, dimension chains, fan-in-k with greedy
// refinement) over the partitions the plan would build, and non-degenerate
// winners join the candidate set as Config.Tree sessions. All candidates —
// flat, staged and treed — are priced with the same per-message charge, so
// the comparison is on equal terms; with the charge at zero the search never
// unseats today's picks. msgPenalty is the expected extra seconds a receiver
// spends per incoming fabric message (a lossy fabric's drop rate × retransmit
// timeout, say); pass 0 to use the model's control-plane α. The winning
// shape also rides into the returned Hints as their Tree.
func WithTreeSearch(msgPenalty float64) AutotuneOption {
	return func(o *tune.Options) {
		o.TreeSearch = true
		o.MessagePenalty = msgPenalty
	}
}

// WithDegraded tunes for the degraded-mode configuration: the machine's
// burst-buffer tier is assumed down, and candidates are priced against the
// fallback tier behind it (direct-to-PFS). Use after the recovery machinery
// reports a tier outage to pick the configuration the degraded writes should
// run with. No-op on a machine without a buffer tier.
func WithDegraded() AutotuneOption {
	return func(o *tune.Options) { o.Degraded = true }
}

// Autotune picks a TAPIOCA configuration, file-creation options and
// matching MPI-IO hints for running workload w on machine m, by searching
// the space the paper tunes by hand per platform — aggregator count, buffer
// size, placement, Lustre striping, and the pipelining mode — with the
// §IV-B cost model plus the planner's round/flush estimators. The search is
// deterministic and does not consume the machine: probes (WithProbes) run
// on fresh identical machines.
//
// The workload's rank count must be a multiple of the machine's node count
// (the rank→node mapping is block-wise, as in Run). Autotune panics on an
// infeasible workload; TryAutotune reports the mismatch as an error instead.
func Autotune(m *Machine, w Workload, opts ...AutotuneOption) (Config, FileOptions, Hints) {
	cfg, fopt, hints, err := TryAutotune(m, w, opts...)
	if err != nil {
		panic(err.Error())
	}
	return cfg, fopt, hints
}

// TryAutotune is Autotune with infeasible inputs surfaced as an error instead
// of a panic — a rank count that is not a positive multiple of the machine's
// node count, or a workload exceeding the platform's capacity, is reported so
// command-line front ends can print the mismatch and exit cleanly.
func TryAutotune(m *Machine, w Workload, opts ...AutotuneOption) (Config, FileOptions, Hints, error) {
	if w.Ranks <= 0 || w.Ranks%m.nodes != 0 {
		return Config{}, FileOptions{}, Hints{}, fmt.Errorf("tapioca: Autotune workload has %d ranks, not a positive multiple of %d nodes", w.Ranks, m.nodes)
	}
	rpn := w.Ranks / m.nodes
	var topt tune.Options
	for _, o := range opts {
		o(&topt)
	}
	p := tune.Platform{
		Topo:         m.topo,
		Dist:         m.fab.Distances(),
		Sys:          m.sys,
		RanksPerNode: rpn,
	}
	if topt.Probes > 0 {
		p.Probe = func(cfg core.Config, fopt storage.FileOptions, pw Workload) float64 {
			pm := m.rebuild()
			var t0, t1 float64
			_, err := pm.Run(rpn, func(ctx *Ctx) {
				f := ctx.CreateFile("autotune-probe", fopt)
				wr := ctx.Tapioca(f, cfg)
				decl := pw.Declared(ctx.Rank(), ctx.Size())
				ctx.Barrier()
				if ctx.Rank() == 0 {
					t0 = ctx.Now()
				}
				if err := wr.Init(decl); err != nil {
					panic(err)
				}
				var ioErr error
				if pw.Read {
					ioErr = wr.ReadAll()
				} else {
					ioErr = wr.WriteAll()
				}
				if ioErr != nil {
					panic(ioErr)
				}
				ctx.Barrier()
				if ctx.Rank() == 0 {
					t1 = ctx.Now()
				}
			})
			if err != nil {
				panic(fmt.Sprintf("tapioca: autotune probe failed: %v", err))
			}
			return t1 - t0
		}
	}
	res, err := tune.TryAutotune(p, w, topt)
	if err != nil {
		return Config{}, FileOptions{}, Hints{}, err
	}
	return res.Config, res.FileOptions, res.Hints, nil
}
