package tune

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tapioca/internal/core"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// measureTheta runs one real collective phase of w on a fresh Theta-like
// rig and returns the timed seconds — the ground truth predictions are
// judged against.
func measureTheta(nodes, rpn, osts int, cfg core.Config, fopt storage.FileOptions, w workload.Pattern) float64 {
	topo := topology.ThetaDragonfly(nodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: osts})
	var t0, t1 int64
	_, err := mpi.Run(mpi.Config{Ranks: w.Ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", fopt)
		}
		f = c.Bcast(0, 32, f).(*storage.File)
		decl := w.Declared(c.Rank(), c.Size())
		wr := core.New(c, sys, f, cfg)
		c.Barrier()
		if c.Rank() == 0 {
			t0 = c.Now()
		}
		wr.Init(decl)
		if w.Read {
			wr.ReadAll()
		} else {
			wr.WriteAll()
		}
		c.Barrier()
		if c.Rank() == 0 {
			t1 = c.Now()
		}
	})
	if err != nil {
		panic(err)
	}
	return sim.ToSeconds(t1 - t0)
}

// thetaPlatform builds the tuner's view of the same rig, with a probe hook
// running real truncated simulations.
func thetaPlatform(nodes, rpn, osts int) Platform {
	topo := topology.ThetaDragonfly(nodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: osts})
	return Platform{
		Topo:         topo,
		Dist:         fab.Distances(),
		Sys:          sys,
		RanksPerNode: rpn,
		Probe: func(cfg core.Config, fopt storage.FileOptions, w workload.Pattern) float64 {
			return measureTheta(nodes, rpn, osts, cfg, fopt, w)
		},
	}
}

func TestAutotuneDeterministic(t *testing.T) {
	p := thetaPlatform(32, 4, 8)
	w := workload.IOR(128, 1<<19)
	a := Autotune(p, w, Options{})
	b := Autotune(p, w, Options{})
	if a.Config != b.Config || a.FileOptions != b.FileOptions || a.Predicted != b.Predicted {
		t.Fatalf("non-deterministic pick: %+v vs %+v", a, b)
	}
	if a.Evaluated == 0 || len(a.Candidates) != a.Evaluated {
		t.Fatalf("candidate accounting: evaluated %d, listed %d", a.Evaluated, len(a.Candidates))
	}
	for i := 1; i < len(a.Candidates); i++ {
		if a.Candidates[i].Corrected < a.Candidates[i-1].Corrected {
			t.Fatalf("candidates not ranked at %d", i)
		}
	}
}

func TestAutotunePicksSaneConfig(t *testing.T) {
	p := thetaPlatform(32, 4, 8)
	w := workload.IOR(128, 1<<19)
	res := Autotune(p, w, Options{})
	cfg := res.Config
	if cfg.Aggregators < 1 || cfg.Aggregators > w.Ranks {
		t.Fatalf("aggregators = %d", cfg.Aggregators)
	}
	if cfg.BufferSize < 1<<20 {
		t.Fatalf("buffer = %d", cfg.BufferSize)
	}
	if cfg.SingleBuffer {
		t.Fatal("picked the single-buffer ablation over the pipeline")
	}
	if res.FileOptions.StripeSize != cfg.BufferSize {
		t.Fatalf("stripe %d not matched 1:1 to buffer %d (Table I)", res.FileOptions.StripeSize, cfg.BufferSize)
	}
	if res.Hints.CBNodes != cfg.Aggregators || res.Hints.CBBufferSize != cfg.BufferSize {
		t.Fatalf("hints %+v do not mirror config %+v", res.Hints, cfg)
	}
	if res.Predicted <= 0 {
		t.Fatalf("predicted = %v", res.Predicted)
	}
}

// TestAutotuneBeatsDefaults is the tuner's reason to exist: the measured
// time of the tuned configuration must not exceed the measured time of the
// library defaults (default Config and platform-default striping).
func TestAutotuneBeatsDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	const nodes, rpn, osts = 64, 4, 8
	w := workload.IOR(nodes*rpn, 1<<20)
	res := Autotune(thetaPlatform(nodes, rpn, osts), w, Options{})
	tuned := measureTheta(nodes, rpn, osts, res.Config, res.FileOptions, w)
	def := measureTheta(nodes, rpn, osts, core.Config{}, storage.FileOptions{}, w)
	if tuned > def {
		t.Fatalf("tuned %.4fs slower than defaults %.4fs (picked %+v / %+v)",
			tuned, def, res.Config, res.FileOptions)
	}
}

// TestAutotuneWithinSweep holds the tuner to the acceptance bar: over an
// explicit grid, the tuned configuration's measured time must be within 10%
// of the best configuration an exhaustive simulated sweep of the same space
// finds.
func TestAutotuneWithinSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const nodes, rpn, osts = 64, 4, 8
	w := workload.IOR(nodes*rpn, 1<<20)
	opt := Options{
		Aggregators: []int{8, 16, 32, 64},
		BufferSizes: []int64{2 << 20, 4 << 20, 8 << 20},
		NoRefine:    true,
	}
	p := thetaPlatform(nodes, rpn, osts)
	res := Autotune(p, w, opt)

	best := -1.0
	for _, a := range opt.Aggregators {
		for _, b := range opt.BufferSizes {
			fopt := p.Sys.RecommendStripe(w.TotalBytes(), b, a)
			sec := measureTheta(nodes, rpn, osts, core.Config{Aggregators: a, BufferSize: b}, fopt, w)
			if best < 0 || sec < best {
				best = sec
			}
		}
	}
	tuned := measureTheta(nodes, rpn, osts, res.Config, res.FileOptions, w)
	if tuned > 1.10*best {
		t.Fatalf("tuned %.4fs not within 10%% of sweep best %.4fs (picked %+v)", tuned, best, res.Config)
	}
}

// TestClosedLoopProbes checks the probe mode: it must run, stay
// deterministic, and record a calibration ratio for the winner.
func TestClosedLoopProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("probe simulations")
	}
	p := thetaPlatform(32, 4, 8)
	w := workload.IOR(128, 1<<20)
	a := Autotune(p, w, Options{Probes: 3})
	b := Autotune(p, w, Options{Probes: 3})
	if a.Config != b.Config || a.Predicted != b.Predicted {
		t.Fatalf("closed loop non-deterministic: %+v vs %+v", a.Config, b.Config)
	}
	// The probes' pool width is a value; a serial pool picks the same.
	serial := Autotune(p, w, Options{Probes: 3, Workers: 1})
	if serial.Config != a.Config || serial.FileOptions != a.FileOptions || !reflect.DeepEqual(serial.Candidates, a.Candidates) {
		t.Fatalf("serial probes picked %+v, default width %+v", serial.Config, a.Config)
	}
	if a.Calibration <= 0 {
		t.Fatalf("calibration = %v", a.Calibration)
	}
	probed := 0
	for _, c := range a.Candidates {
		if c.Probed > 0 {
			probed++
		}
	}
	if probed == 0 {
		t.Fatal("no candidate was probed")
	}
}

// TestReadTuning exercises the read path end to end: a read workload tunes
// and its configuration completes a measured read phase.
func TestReadTuning(t *testing.T) {
	p := thetaPlatform(32, 4, 8)
	w := workload.IOR(128, 1<<19)
	w.Read = true
	res := Autotune(p, w, Options{})
	if res.Predicted <= 0 {
		t.Fatalf("predicted = %v", res.Predicted)
	}
	if testing.Short() {
		return
	}
	if sec := measureTheta(32, 4, 8, res.Config, res.FileOptions, w); sec <= 0 {
		t.Fatalf("measured read = %v", sec)
	}
}

func TestTruncatePattern(t *testing.T) {
	w := workload.HACC(8, 10_000, workload.AoS)
	full := w.TotalBytes()
	tr := w.Truncate(1 << 10)
	got := tr.TotalBytes()
	if got >= full || got == 0 {
		t.Fatalf("truncated bytes = %d of %d", got, full)
	}
	// Truncation keeps at least one run per budget-exhausted rank and never
	// grows a segment.
	if got > 8*(2<<10) {
		t.Fatalf("truncation overshot: %d", got)
	}
}

func TestRefinementStaysInsideGrid(t *testing.T) {
	// A best point at the top of the grid must refine inward only: the
	// search never proposes aggregator counts outside the supplied space.
	for _, v := range neighborInts(16, []int{8, 16}) {
		if v < 8 || v > 16 {
			t.Fatalf("refinement proposed %d outside grid [8,16]", v)
		}
	}
	for _, v := range neighborInts(8, []int{8, 16}) {
		if v < 8 || v > 16 {
			t.Fatalf("refinement proposed %d outside grid [8,16]", v)
		}
	}
	if got := neighborInts(8, []int{8}); len(got) != 0 {
		t.Fatalf("single-point grid proposed %v", got)
	}
}

func TestDefaultAggregatorGrid(t *testing.T) {
	grid := defaultAggregators(2048, storage.NewNullFS(), 1<<31)
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not strictly ascending: %v", grid)
		}
	}
	for _, a := range grid {
		if a < 1 || a > 2048 {
			t.Fatalf("out-of-range aggregator count %d", a)
		}
	}
}

// TestTreeSearchDimension covers the aggregation-tree dimension end to end:
// off by default (no candidate carries an interior shape; hints mirror the
// pick's shape), one candidate pair per shape when on (a degenerate search
// pick must not duplicate the flat or staged pair), deterministic, and
// decisive under a heavy per-message penalty — a modeled lossy fabric must
// hand the pick to a multi-level shape, and the winner's shape must flow into
// the baseline hints as their Tree.
func TestTreeSearchDimension(t *testing.T) {
	p := thetaPlatform(64, 4, 8)
	p.Probe = nil
	w := workload.IOR(256, 1<<19)
	grid := Options{Aggregators: []int{4}, BufferSizes: []int64{4 << 20}, NoRefine: true}

	off := Autotune(p, w, grid)
	for _, c := range off.Candidates {
		if !c.Config.Shape().Degenerate() {
			t.Fatalf("TreeSearch off, yet candidate %+v carries an interior shape", c.Config)
		}
	}
	want := ""
	if sh := off.Config.Shape(); sh.Kind != tree.Flat {
		want = sh.String()
	}
	if got := hintShape(off.Hints); got != want {
		t.Fatalf("TreeSearch off: hints carry tree %q, want %q", got, want)
	}

	on := grid
	on.TreeSearch = true
	on.MessagePenalty = 2e-4 // ~loss rate × retransmit penalty of a sick fabric
	a := Autotune(p, w, on)
	b := Autotune(p, w, on)
	// Config holds the shape by pointer; compare values, then the rest.
	if a.Config.Shape() != b.Config.Shape() || a.Predicted != b.Predicted {
		t.Fatalf("tree search non-deterministic: %+v vs %+v", a.Config, b.Config)
	}
	ac, bc := a.Config, b.Config
	ac.Tree, bc.Tree = nil, nil
	if ac != bc {
		t.Fatalf("tree search non-deterministic: %+v vs %+v", a.Config, b.Config)
	}
	distinctShapes(t, a)
	var treed int
	for _, c := range a.Candidates {
		if !c.Config.Shape().Degenerate() {
			treed++
		}
	}
	if treed == 0 {
		t.Fatal("TreeSearch on emitted no tree-shaped candidates")
	}
	if a.Config.Shape().Degenerate() {
		t.Fatalf("a %.0fµs-per-message fabric still picked the plain pipeline (%+v)",
			on.MessagePenalty*1e6, a.Config)
	}
	if want, got := a.Config.Tree.String(), hintShape(a.Hints); got != want {
		t.Fatalf("winner shape %q not mirrored into hints (got %q)", want, got)
	}

	// Penalty-free tree search still ranks shapes (with the control-plane α)
	// but must never beat flat on a clean fabric by the model's own terms.
	clean := grid
	clean.TreeSearch = true
	res := Autotune(p, w, clean)
	distinctShapes(t, res)
	if !res.Config.Shape().Degenerate() && res.Candidates[0].Corrected == res.Candidates[1].Corrected {
		t.Fatalf("tie broken toward a tree: %+v", res.Config)
	}
}

// hintShape spells the shape a result's hints carry, "" when they carry
// none (the flat exchange).
func hintShape(h mpiio.Hints) string {
	if h.Tree == nil {
		return ""
	}
	return h.Tree.String()
}

// distinctShapes fails when two candidates share a grid point, buffering
// mode and shape — the duplicate a degenerate search pick would add beside
// the flat or staged pair that already covers it.
func distinctShapes(t *testing.T, res Result) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range res.Candidates {
		cfg := c.Config
		k := fmt.Sprintf("%s/%v/%s", cfg.Shape(), cfg.SingleBuffer,
			key(cfg.Aggregators, cfg.BufferSize, cfg.Placement))
		if seen[k] {
			t.Fatalf("candidate %s emitted twice (%+v)", k, cfg)
		}
		seen[k] = true
	}
}

// TestStagedPickReachesHints: a node-staged pick is a shape like any other,
// so it rides into the MPI-IO hints as their Tree — before staging
// was a shape, the hints dropped it and MPI-IO sent per-rank messages.
func TestStagedPickReachesHints(t *testing.T) {
	p := thetaPlatform(64, 4, 8)
	p.Probe = nil
	res := Autotune(p, workload.IOR(256, 64<<10), Options{
		Aggregators:    []int{16},
		BufferSizes:    []int64{4 << 20},
		NoRefine:       true,
		TreeSearch:     true,
		MessagePenalty: 2e-4,
	})
	if got := hintShape(res.Hints); got != "staged" {
		t.Fatalf("hints carry tree %q, want %q (%+v)", got, "staged", res.Config)
	}
	if sh := res.Config.Shape(); sh.Kind != tree.NodeStaged {
		t.Fatalf("picked shape %s, want staged (%+v)", sh, res.Config)
	}
}

// TestRankTiedShapes: candidates tied on every other key rank by shape
// mechanism — flat, then node-staged, then interior shapes by name — not by
// shape name alone (which would put chain, fanin and group ahead of staged).
func TestRankTiedShapes(t *testing.T) {
	shape := func(s string) *tree.Shape {
		sh, err := tree.ParseShape(s)
		if err != nil {
			t.Fatal(err)
		}
		return &sh
	}
	var s search
	for _, sh := range []*tree.Shape{shape("group"), shape("staged"), shape("fanin:4"), nil, shape("chain"), shape("fanin:12")} {
		s.cands = append(s.cands, Candidate{Config: core.Config{
			Aggregators: 4, BufferSize: 4 << 20, Placement: core.PlacementTopologyAware, Tree: sh,
		}, Corrected: 1})
	}
	// The staged spelling through the data-plane knob ties with the staged
	// shape and keeps its input order.
	s.cands = append(s.cands, Candidate{Config: core.Config{
		Aggregators: 4, BufferSize: 4 << 20, Placement: core.PlacementTopologyAware, IntraNodeStaging: true,
	}, Corrected: 1})
	s.rank()
	var got []string
	for _, c := range s.cands {
		got = append(got, c.Config.Shape().String())
	}
	want := []string{"flat", "staged", "staged", "chain", "fanin:12", "fanin:4", "group"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tied candidates ranked %v, want %v", got, want)
	}
	if s.cands[1].Config.Tree == nil {
		t.Fatalf("stable order lost: the staged shape should precede the staging knob, got %+v", s.cands[1].Config)
	}
}
