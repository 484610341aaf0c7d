// Package expt regenerates every table and figure of the paper's evaluation
// (§V): the IOR tuning studies (Figs. 7–8), the micro-benchmark comparisons
// (Figs. 9–10), the buffer:stripe ratio study (Table I), and the HACC-IO
// comparisons (Figs. 11–14), plus ablations of TAPIOCA's design choices.
//
// Runs are deterministic. Absolute bandwidths come from a calibrated
// simulator, not the authors' hardware; the reproduced claims are the
// shapes: who wins, by what factor, and how gaps evolve with data size.
package expt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tapioca/internal/core"
	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/par"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

// Result is one regenerated table/figure: rows of X against one bandwidth
// column per series.
type Result struct {
	ID     string
	Title  string
	XLabel string
	Labels []string // series names
	Rows   []Row
	Notes  []string
}

// Row is one X position with one value (GB/s) per series.
type Row struct {
	X      float64
	Values []float64
}

// Env holds one run's settings. The zero Env is the default run: reduced
// scale, no faults, recovery armed, a GOMAXPROCS-wide worker pool, the
// default cell budget, no armed tree shape, unobserved. Runs share nothing
// but the immutable topology cache, so runs with different Envs may execute
// concurrently in one process.
type Env struct {
	// Full runs the paper's node counts instead of the reduced scale.
	Full bool
	// Workers bounds the worker pool a figure's grid cells run on: 1 forces
	// serial execution, <= 0 means GOMAXPROCS. Each cell is an independent
	// simulation on a fresh platform and rows are assembled by index, so
	// results are identical at any width.
	Workers int
	// Faults arms deterministic fault injection on every rig the run builds
	// (nil keeps the original zero-fault path).
	Faults *fault.Config
	// NoRecovery disarms the recovery machinery (retry, failover,
	// degraded-mode writes, repair) under Faults.
	NoRecovery bool
	// Short shrinks the abl-faults rate sweep to its CI smoke subset.
	Short bool
	// Tree is the aggregation-tree shape every cell that does not pin its
	// own runs with (nil leaves every cell on its configured path).
	Tree *tree.Shape
	// Observer collects the run's flight recordings, metrics and phase
	// totals, keyed by figure id; nil runs unobserved (and pays nothing).
	Observer *Observer

	budget int64  // per-cell virtual-time watchdog (ns); <= 0 means defaultCellBudget
	label  string // the observer label of the run's cells (the spec ID)
	tally  *tally // the run's work counters; nil when nobody reads them
}

// Width returns the worker-pool width the run's grids use.
func (e Env) Width() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// defaultCellBudget is the per-cell virtual-time watchdog: four simulated
// hours, an order of magnitude past the slowest legitimate full-scale cell.
// A cell that exceeds it is killed by the engine (sim.BudgetError) and
// reported as a structured CellError instead of hanging the whole run.
const defaultCellBudget = 4 * 3600 * 1e9

func (e Env) cellBudget() int64 {
	if e.budget > 0 {
		return e.budget
	}
	return defaultCellBudget
}

// Counts are one run's deterministic work counters.
type Counts struct {
	// Transfers counts every simulated transfer the run's measurement cells
	// booked, intra-node ones included.
	Transfers int64
	// FabricMessages counts the inter-node messages among Transfers: the
	// traffic that crosses fabric links, which intra-node staging collapses
	// ppn-fold.
	FabricMessages int64
	// Parks counts the blocking waits of every simulated proc
	// (sim.Engine.Parks), and Switches the engine's context switches
	// between procs (sim.Engine.Switches).
	Parks, Switches int64
}

// tally accumulates a run's Counts from concurrently completing cells.
type tally struct {
	transfers, fabricMsgs, parks, switches atomic.Int64
}

// add books one finished cell's fabric and engine counters.
func (t *tally) add(fab *netsim.Fabric, eng *sim.Engine) {
	if t == nil {
		return
	}
	t.transfers.Add(fab.Transfers())
	t.fabricMsgs.Add(fab.FabricMessages())
	t.parks.Add(eng.Parks())
	t.switches.Add(eng.Switches())
}

// Spec is a runnable experiment.
type Spec struct {
	ID    string
	Title string
	fig   func(Env) Result
}

// Run regenerates the experiment under env, labelling its observed cells
// with the spec's ID, and returns the figure with the run's own counters.
// A measurement cell that fails panics out of Run with its *CellError.
func (s Spec) Run(env Env) (Result, Counts) {
	t := &tally{}
	env.label, env.tally = s.ID, t
	res := s.fig(env)
	return res, Counts{
		Transfers:      t.transfers.Load(),
		FabricMessages: t.fabricMsgs.Load(),
		Parks:          t.parks.Load(),
		Switches:       t.switches.Load(),
	}
}

// All lists every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig7", "IOR on Mira, baseline vs user-tuned MPI-IO (512 nodes × 16)", Fig7},
		{"fig8", "IOR on Theta, baseline vs user-tuned MPI-IO (512 nodes × 16)", Fig8},
		{"fig9", "Micro-benchmark on Mira: TAPIOCA vs MPI-IO (1,024 nodes × 16)", Fig9},
		{"fig10", "Micro-benchmark on Theta: TAPIOCA vs MPI-IO (512 nodes × 16)", Fig10},
		{"table1", "Aggregator buffer size : Lustre stripe size ratio", Table1},
		{"fig11", "HACC-IO on Mira, 1,024 nodes × 16, file per Pset", Fig11},
		{"fig12", "HACC-IO on Mira, 4,096 nodes × 16, file per Pset", Fig12},
		{"fig13", "HACC-IO on Theta, 1,024 nodes × 16", Fig13},
		{"fig14", "HACC-IO on Theta, 2,048 nodes × 16", Fig14},
		{"abl-placement", "Ablation: aggregator placement strategies", AblationPlacement},
		{"abl-mpiio-placement", "Ablation: MPI-IO aggregator strategies on Theta", AblationMPIIOPlacement},
		{"abl-pipeline", "Ablation: double vs single aggregation buffer", AblationPipeline},
		{"abl-declared", "Ablation: declared I/O vs per-call aggregation", AblationDeclared},
		{"abl-aggrcount", "Ablation: aggregator count on Theta", AblationAggregators},
		{"abl-autotune", "Ablation: autotuned vs default vs exhaustive sweep", AblationAutotune},
		{"abl-intranode", "Ablation: intra-node pre-aggregation vs flat puts", AblationIntraNode},
		{"abl-tree", "Ablation: synthesized aggregation trees vs flat/staged", AblationTree},
		{"abl-contention", "Ablation: link vs endpoint contention model", AblationContention},
	}
}

// FullScale lists the registered full-scale variants: the paper's own node
// counts (§V — 512–1,024 nodes × 16 ranks and up), runnable on one core in
// minutes since the message path was flattened. Each variant pins full
// scale regardless of Env.Full. fig10-full and fig13-full exercise the
// dragonfly/Lustre path, fig7/9-full the BG/Q torus/GPFS path.
func FullScale() []Spec {
	pin := func(fig func(Env) Result, id string) func(Env) Result {
		return func(env Env) Result {
			env.Full = true
			res := fig(env)
			res.ID = id
			return res
		}
	}
	return []Spec{
		{"fig7-full", "IOR on Mira at paper scale (512 nodes × 16 ranks)", pin(Fig7, "fig7-full")},
		{"fig9-full", "Micro-benchmark on Mira at paper scale (1,024 nodes × 16 ranks)", pin(Fig9, "fig9-full")},
		{"fig10-full", "Micro-benchmark on Theta at paper scale (512 nodes × 16 ranks)", pin(Fig10, "fig10-full")},
		{"fig13-full", "HACC-IO on Theta at paper scale (1,024 nodes × 16 ranks)", pin(Fig13, "fig13-full")},
		{"abl-intranode-full", "Intra-node pre-aggregation at paper scale (256 nodes, ppn sweep)", pin(AblationIntraNode, "abl-intranode-full")},
		{"abl-tree-full", "Synthesized aggregation trees at paper scale (512 nodes, width sweep)", pin(AblationTree, "abl-tree-full")},
	}
}

// ByID returns the experiment with the given id (reduced-scale set, a
// registered full-scale variant, or a host-side data-plane experiment), or
// nil.
func ByID(id string) *Spec {
	for _, set := range [][]Spec{All(), FullScale(), DataPlane(), Chaos()} {
		for _, s := range set {
			if s.ID == id {
				sp := s
				return &sp
			}
		}
	}
	return nil
}

// runGrid evaluates a uniform rows×cols grid of independent measurement
// cells — one fresh simulated platform each — on the bounded worker pool and
// assembles the rows by index, byte-identical to the serial loop order.
func runGrid(env Env, xs []float64, cols int, cell func(row, col int) float64) []Row {
	rows := make([]Row, len(xs))
	for i, x := range xs {
		rows[i] = Row{X: x, Values: make([]float64, cols)}
	}
	par.Map(env.Width(), len(xs)*cols, func(i int) {
		rows[i/cols].Values[i%cols] = cell(i/cols, i%cols)
	})
	return rows
}

// runCells evaluates n independent cells on the worker pool, returning the
// values in cell-index order (the flat variant of runGrid, for experiments
// whose cells do not form a rectangle).
func runCells(env Env, n int, cell func(i int) float64) []float64 {
	out := make([]float64, n)
	par.Map(env.Width(), n, func(i int) { out[i] = cell(i) })
	return out
}

// rig is a fresh simulated platform for one measurement.
type rig struct {
	env   Env
	topo  topology.Topology
	fab   *netsim.Fabric
	sys   storage.System
	nodes int
	rpn   int
	// fplan is the cell's deterministic fault plan — non-nil when the Env
	// arms faults (or the chaos experiment builds its own plan). One plan
	// per rig: its consumed-once state never crosses cells.
	fplan *fault.Plan
	// record keeps a metrics-only recorder on every run even when the Env is
	// unobserved; rec is the recorder the last run used (nil if none).
	record bool
	rec    *obs.Recorder
}

func (r *rig) ranks() int { return r.nodes * r.rpn }

// session injects the rig's fault plan (with recovery armed unless the Env
// disarms it) and the Env's tree shape into a TAPIOCA session
// config. A shape the cell pinned wins; a rig without a plan and an Env
// without a shape leave cfg untouched — the byte-identical original path.
func (r *rig) session(cfg core.Config) core.Config {
	if r.fplan != nil {
		cfg.Faults = r.fplan
		cfg.Recovery = !r.env.NoRecovery
	}
	if cfg.Tree == nil {
		cfg.Tree = r.env.Tree
	}
	return cfg
}

// hints mirrors session for the MPI-IO stack: the Env's tree shape rides in
// as the Tree hint unless the cell set one.
func (r *rig) hints(h mpiio.Hints) mpiio.Hints {
	if h.Tree == nil {
		h.Tree = r.env.Tree
	}
	return h
}

// must restores the pre-error-API failure mode for experiment drivers: an
// I/O session error inside a rank proc is a bug in the figure's setup, and
// panicking surfaces it as the run's error instead of silently recording
// corrupt figure data.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Topologies (and their distance caches) are immutable once built: routing
// tables, coordinates and distances never change, and DistanceCache rows
// are lock-free. Cells therefore share one instance per configuration —
// fabrics and storage systems, which carry booking state, stay fresh per
// cell — so a figure pays link tables and distance rows once, not once per
// grid cell.
var (
	topoMu     sync.Mutex
	miraTopos  = map[int]*topology.Torus5D{}
	thetaTopos = map[[2]int]*topology.Dragonfly{}
	distCaches = map[topology.Topology]*topology.DistanceCache{}
)

func sharedMira(nodes int) (*topology.Torus5D, *topology.DistanceCache) {
	topoMu.Lock()
	defer topoMu.Unlock()
	topo := miraTopos[nodes]
	if topo == nil {
		topo = topology.MiraTorus(nodes)
		miraTopos[nodes] = topo
		distCaches[topo] = topology.NewDistanceCache(topo)
	}
	return topo, distCaches[topo]
}

func sharedTheta(nodes, routing int) (*topology.Dragonfly, *topology.DistanceCache) {
	topoMu.Lock()
	defer topoMu.Unlock()
	key := [2]int{nodes, routing}
	topo := thetaTopos[key]
	if topo == nil {
		topo = topology.ThetaDragonfly(nodes, routing)
		thetaTopos[key] = topo
		distCaches[topo] = topology.NewDistanceCache(topo)
	}
	return topo, distCaches[topo]
}

// miraRig builds a Mira platform. lockMode selects the GPFS token mode.
func miraRig(env Env, nodes, rpn, lockMode int) *rig {
	topo, dc := sharedMira(nodes)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	fab.ShareDistances(dc)
	sys := storage.NewGPFS(topo, fab, storage.GPFSConfig{LockMode: lockMode})
	return armFaults(&rig{env: env, topo: topo, fab: fab, sys: sys, nodes: nodes, rpn: rpn})
}

// thetaRig builds a Theta platform with the given routing mode and OST
// population (reduced-scale runs shrink the OST count proportionally so
// aggregator-per-OST and domain-per-stripe ratios match the paper's).
func thetaRig(env Env, nodes, rpn, routing, numOST int) *rig {
	topo, dc := sharedTheta(nodes, routing)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	fab.ShareDistances(dc)
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: numOST})
	return armFaults(&rig{env: env, topo: topo, fab: fab, sys: sys, nodes: nodes, rpn: rpn})
}

// measure runs body on the rig and returns the I/O bandwidth in GB/s:
// bytes divided by the time between the two barriers body brackets its I/O
// with (via the mark callback).
type timer struct {
	t0, t1 int64
}

// run executes a job; body gets the comm and a timer whose Start/Stop must
// bracket the timed phase (rank 0's observations are used — barrier release
// times are common to all ranks). Every measurement cell funnels through
// here, so this is the one place that applies the Env's watchdog budget,
// recorder and counters to a simulation.
func (r *rig) run(body func(c *mpi.Comm, tm *timer)) (float64, error) {
	// Watchdog: a cell that exceeds the virtual-time budget is killed by the
	// engine and surfaces as a structured CellError (wrapping
	// sim.BudgetError) instead of hanging the whole grid.
	eng := sim.NewEngine()
	eng.SetBudget(r.env.cellBudget())
	defer r.env.tally.add(r.fab, eng)
	r.rec = r.env.Observer.recorder()
	if r.rec == nil && r.record {
		r.rec = obs.NewRecorder(false)
	}
	tm := &timer{}
	_, err := mpi.Run(mpi.Config{
		Ranks:        r.ranks(),
		RanksPerNode: r.rpn,
		Fabric:       r.fab,
		Engine:       eng,
		Recorder:     r.rec,
	}, func(c *mpi.Comm) {
		body(c, tm)
	})
	if err != nil {
		return 0, &CellError{Nodes: r.nodes, Ranks: r.ranks(), Err: err}
	}
	if r.rec != nil {
		r.fab.SnapshotMetrics(r.rec.Registry(), eng.Now())
		r.env.Observer.observe(r.env.label, r.rec)
	}
	return sim.ToSeconds(tm.t1 - tm.t0), nil
}

// Start marks the beginning of the timed phase (call after a barrier, on
// every rank; rank 0 wins).
func (tm *timer) Start(c *mpi.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		tm.t0 = c.Now()
	}
}

// Stop marks the end of the timed phase.
func (tm *timer) Stop(c *mpi.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		tm.t1 = c.Now()
	}
}

// gbps converts bytes over seconds to GB/s.
func gbps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}

// Render formats a Result as an aligned text table.
func Render(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", res.ID, res.Title)
	fmt.Fprintf(&b, "%-12s", res.XLabel)
	for _, l := range res.Labels {
		fmt.Fprintf(&b, "  %18s", l)
	}
	b.WriteByte('\n')
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%-12.3f", row.X)
		for _, v := range row.Values {
			fmt.Fprintf(&b, "  %15.3f GB/s", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV formats a Result as comma-separated values.
func CSV(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "x")
	for _, l := range res.Labels {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(l, ",", ";"))
	}
	b.WriteByte('\n')
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%g", row.X)
		for _, v := range row.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
