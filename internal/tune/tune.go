// Package tune is TAPIOCA's model-driven autotuner: given a machine's
// topology and storage calibration plus a workload descriptor
// (workload.Pattern), it searches the configuration space the paper tunes
// by hand per platform (§V) — aggregator count, aggregation buffer size,
// placement strategy, Lustre striping, and the pipelining mode — and
// returns the configuration the cost model predicts fastest.
//
// The search is deterministic: a coarse grid over aggregator count × buffer
// size × placement (striping follows each candidate through the storage
// system's RecommendStripe, and both pipeline variants are priced in every
// pass), followed by local refinement around the best grid point. An
// optional closed-loop mode re-grounds the model before the final pick:
// the top candidates each run a short simulated probe (a few aggregation
// rounds of the real workload), and each candidate's prediction is scaled
// by its observed/predicted probe ratio — Kang et al.'s and TASIO's
// measure-then-choose direction on top of the analytic model.
package tune

import (
	"fmt"
	"runtime"
	"sort"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/mpiio"
	"tapioca/internal/par"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// Platform is the autotuner's read-only view of a machine. Nothing here is
// mutated by a search: predictions price candidates arithmetically, and
// probes (when enabled) run on fresh machines supplied by the Probe hook.
type Platform struct {
	// Topo is the machine's interconnect.
	Topo topology.Topology
	// Dist optionally shares the machine-wide memoized distance cache; a
	// private cache is built when nil.
	Dist *topology.DistanceCache
	// Sys is the machine's storage system (its calibration methods price
	// the flush and striping terms).
	Sys storage.System
	// RanksPerNode is the job's rank→node density. Default 1.
	RanksPerNode int
	// Probe, when set, runs a short real simulation of workload w under the
	// candidate configuration and returns the measured collective seconds.
	// Required for the closed-loop mode (Options.Probes > 0). Candidate
	// probes are independent and run on the shared worker pool
	// (internal/par), so the hook must be safe for concurrent calls — build
	// a fresh machine per invocation and touch nothing shared.
	Probe func(cfg core.Config, fopt storage.FileOptions, w workload.Pattern) float64
}

// Options tunes the search itself. The zero value is the recommended
// pure-model search.
type Options struct {
	// Aggregators is an explicit aggregator-count grid; nil derives one
	// from the rank count and the storage system's striping.
	Aggregators []int
	// BufferSizes is an explicit buffer-size grid; nil selects 2–32 MB in
	// powers of two.
	BufferSizes []int64
	// Placements lists the election strategies to consider; nil selects
	// topology-aware and two-level.
	Placements []cost.Placement
	// NoRefine restricts the search to the exact grid — what an exhaustive
	// sweep over the same space evaluates, so ablations compare
	// like-for-like.
	NoRefine bool
	// Probes enables the closed-loop mode: the top Probes candidates each
	// run a short simulated probe and the final pick minimizes the
	// probe-corrected prediction. Requires Platform.Probe.
	Probes int
	// Workers bounds the worker pool the probes run on: 1 runs them
	// serially, <= 0 means GOMAXPROCS. The pick is identical at any width.
	Workers int
	// Degraded tunes for the degraded-mode configuration: the platform's
	// burst-buffer tier is assumed down and the search prices candidates
	// against the fallback tier behind it (storage.DegradedSystemOf). The
	// recovery machinery surfaces a tier outage to the caller, who re-tunes
	// with this set to pick the direct-to-PFS configuration. No-op when the
	// platform has no fallback tier.
	Degraded bool
	// TreeSearch adds the aggregation-tree dimension: every grid point also
	// runs the multi-level reduction-shape search (internal/tree) over the
	// partitions the candidate would build, and a searched-tree candidate is
	// emitted whenever the winning shape is non-degenerate. While active,
	// every candidate — flat, staged and tree alike — is priced with a
	// per-message charge (MessagePenalty, or the control-plane α when unset)
	// so shapes compete on equal terms. Off by default: the paper's
	// two-phase baseline stays untouched unless a caller opts in.
	TreeSearch bool
	// MessagePenalty is the expected extra seconds a receiver spends per
	// incoming fabric message when TreeSearch prices shapes — on a lossy
	// fabric, loss rate × retransmit penalty. Zero selects the control-plane
	// α (software overhead plus route latency). Ignored without TreeSearch.
	MessagePenalty float64
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Config      core.Config
	FileOptions storage.FileOptions
	// Predicted is the model's end-to-end estimate in seconds.
	Predicted float64
	// Probed is the measured seconds of the truncated probe run (0 when the
	// candidate was not probed).
	Probed float64
	// Corrected is Predicted scaled by the probe's observed/predicted ratio
	// (equal to Predicted when not probed).
	Corrected float64
}

// Result is a completed search.
type Result struct {
	// Config, FileOptions and Hints are the winning configuration for the
	// TAPIOCA path, file creation, and the MPI-IO baseline respectively.
	Config      core.Config
	FileOptions storage.FileOptions
	Hints       mpiio.Hints
	// Predicted is the winner's (probe-corrected, in closed-loop mode)
	// end-to-end estimate in seconds.
	Predicted float64
	// Calibration is the winner's observed/predicted probe ratio (1 in
	// pure-model mode).
	Calibration float64
	// Evaluated counts scored candidates; Candidates lists them ranked
	// best-first.
	Evaluated  int
	Candidates []Candidate
}

// probeRounds is how many aggregation rounds a closed-loop probe simulates.
const probeRounds = 3

// Autotune searches the configuration space for workload w on platform p
// and returns the predicted-fastest configuration. Deterministic: the same
// inputs always produce the same pick. It panics on an infeasible platform
// (ranks exceeding nodes × ranks-per-node); callers that want a recoverable
// error use TryAutotune.
func Autotune(p Platform, w workload.Pattern, opt Options) Result {
	res, err := TryAutotune(p, w, opt)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// TryAutotune is Autotune with platform validation surfaced as an error
// instead of a panic: a workload whose rank count exceeds the platform's
// nodes × ranks-per-node capacity is reported, not crashed on, so CLIs can
// print the mismatch and exit cleanly.
func TryAutotune(p Platform, w workload.Pattern, opt Options) (Result, error) {
	if p.RanksPerNode <= 0 {
		p.RanksPerNode = 1
	}
	if opt.Degraded {
		if d := storage.DegradedSystemOf(p.Sys); d != nil {
			p.Sys = d
		}
	}
	pr, err := newPredictor(p, w)
	if err != nil {
		return Result{}, err
	}
	if opt.TreeSearch {
		pr.msgPenalty = opt.MessagePenalty
		if pr.msgPenalty <= 0 {
			pr.msgPenalty = pr.alpha()
		}
	}
	aggGrid := opt.Aggregators
	if len(aggGrid) == 0 {
		aggGrid = defaultAggregators(w.Ranks, p.Sys, pr.totalBytes)
	}
	bufGrid := opt.BufferSizes
	if len(bufGrid) == 0 {
		bufGrid = []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}
	}
	placements := opt.Placements
	if len(placements) == 0 {
		placements = []cost.Placement{cost.TopologyAware(), cost.TwoLevel()}
	}

	s := &search{p: p, pr: pr, seen: map[string]bool{}, treeSearch: opt.TreeSearch}
	for _, a := range aggGrid {
		for _, b := range bufGrid {
			for _, pl := range placements {
				s.evaluate(a, b, pl)
			}
		}
	}
	if len(s.cands) == 0 {
		panic(fmt.Sprintf("tune: no valid candidates in search space (aggregators %v, buffers %v)", aggGrid, bufGrid))
	}
	s.rank()

	// Local refinement: probe the geometric neighborhood of the best grid
	// point along each axis, twice, keeping the winner's placement.
	if !opt.NoRefine {
		for iter := 0; iter < 2; iter++ {
			best := s.cands[0]
			a, b := best.Config.Aggregators, best.Config.BufferSize
			for _, na := range neighborInts(a, aggGrid) {
				s.evaluate(na, b, best.Config.Placement)
			}
			for _, nb := range neighborSizes(b, bufGrid) {
				s.evaluate(a, nb, best.Config.Placement)
			}
			s.rank()
		}
	}

	// Closed loop: re-ground the top candidates with short probe rounds.
	if opt.Probes > 0 && p.Probe != nil {
		s.probe(w, opt.Probes, opt.Workers)
		s.rank()
	}

	best := s.cands[0]
	// The ratio actually applied to the winner: its own probe's ratio, the
	// mean probe ratio when it went unprobed, or 1 in pure-model mode.
	calibration := 1.0
	if best.Predicted > 0 {
		calibration = best.Corrected / best.Predicted
	}
	hints := mpiio.TunedHints(best.Config.Aggregators, best.Config.BufferSize, best.Config.Placement)
	if sh := best.Config.Shape(); sh.Kind != tree.Flat {
		hints.Tree = &sh
	}
	return Result{
		Config:      best.Config,
		FileOptions: best.FileOptions,
		Hints:       hints,
		Predicted:   best.Corrected,
		Calibration: calibration,
		Evaluated:   len(s.cands),
		Candidates:  s.cands,
	}, nil
}

// search accumulates scored candidates.
type search struct {
	p          Platform
	pr         *predictor
	cands      []Candidate
	seen       map[string]bool
	treeSearch bool
}

// fileOptions derives the candidate's file-creation options: the storage
// system couples striping to the aggregation configuration (stripe size =
// buffer size, the Table I 1:1 optimum); systems without striping return
// platform defaults.
func (s *search) fileOptions(bufSize int64, aggregators int) storage.FileOptions {
	return s.p.Sys.RecommendStripe(s.pr.totalBytes, bufSize, aggregators)
}

func key(a int, b int64, pl cost.Placement) string {
	return fmt.Sprintf("%d/%d/%s", a, b, pl.Name())
}

// evaluate scores one (aggregators, buffer, placement) point under
// each aggregation shape: flat, and on platforms with co-located ranks
// (RanksPerNode > 1) node-staged plus — with TreeSearch — the shape search's
// pick when it has interior levels (a degenerate pick is already covered).
// At one rank per node every node group is a singleton, so staging and
// trees are structural no-ops and only flat is priced. The shapes share one
// plan, and each yields a double- and a single-buffered candidate.
func (s *search) evaluate(a int, b int64, pl cost.Placement) {
	if a < 1 || b < 1 {
		return
	}
	if a > len(s.pr.all) {
		a = len(s.pr.all)
	}
	k := key(a, b, pl)
	if s.seen[k] {
		return
	}
	s.seen[k] = true
	fopt := s.fileOptions(b, a)
	base := core.Config{Aggregators: a, BufferSize: b, Placement: pl}
	point := s.pr.plan(base, fopt)
	shapes := []*tree.Shape{nil}
	if s.p.RanksPerNode > 1 {
		shapes = append(shapes, &tree.Shape{Kind: tree.NodeStaged})
		if s.treeSearch {
			if sh, ok := s.pr.searchShape(point); ok {
				shapes = append(shapes, &sh)
			}
		}
	}
	for _, sh := range shapes {
		cfg := base
		cfg.Tree = sh
		double, single := s.pr.predict(cfg, fopt, point)
		s.cands = append(s.cands, Candidate{Config: cfg, FileOptions: fopt, Predicted: double, Corrected: double})
		cfg.SingleBuffer = true
		s.cands = append(s.cands, Candidate{Config: cfg, FileOptions: fopt, Predicted: single, Corrected: single})
	}
}

// rank orders candidates best-first, deterministically: corrected time, then
// fewer aggregators, smaller buffers, double-buffered before single, the
// simpler aggregation shape (flat, then node-staged, then interior shapes by
// name — ties mean the extra hops bought nothing), and placement name as
// the last resort.
func (s *search) rank() {
	sort.SliceStable(s.cands, func(i, j int) bool {
		a, b := s.cands[i], s.cands[j]
		if a.Corrected != b.Corrected {
			return a.Corrected < b.Corrected
		}
		if a.Config.Aggregators != b.Config.Aggregators {
			return a.Config.Aggregators < b.Config.Aggregators
		}
		if a.Config.BufferSize != b.Config.BufferSize {
			return a.Config.BufferSize < b.Config.BufferSize
		}
		if a.Config.SingleBuffer != b.Config.SingleBuffer {
			return !a.Config.SingleBuffer
		}
		if as, bs := a.Config.Shape(), b.Config.Shape(); as != bs {
			if ac, bc := shapeClass(as), shapeClass(bs); ac != bc {
				return ac < bc
			}
			return as.String() < bs.String()
		}
		return a.Config.Placement.Name() < b.Config.Placement.Name()
	})
}

// shapeClass ranks aggregation shapes by mechanism in rank tie-breaks: flat,
// then node-staged, then every shape with interior levels.
func shapeClass(sh tree.Shape) int {
	switch sh.Kind {
	case tree.Flat:
		return 0
	case tree.NodeStaged:
		return 1
	}
	return 2
}

// probe runs the closed loop over the current top-k candidates: each runs a
// truncated workload (≈probeRounds rounds per partition) on a fresh machine,
// and its full prediction is rescaled by the observed/predicted ratio of the
// probe. Mispriced candidates (an optimistic storage term, an underestimated
// incast) are pulled back toward reality before the final pick.
//
// Probes are independent simulations (the Probe hook builds a fresh machine
// per call), so they run on a pool of up to workers goroutines; the ratios
// are applied in candidate order afterwards, keeping the pick identical to a
// serial probe loop.
func (s *search) probe(w workload.Pattern, k, workers int) {
	if k > len(s.cands) {
		k = len(s.cands)
	}
	type outcome struct{ measured, predicted float64 }
	outs := make([]outcome, k)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.Map(workers, k, func(i int) {
		c := s.cands[i]
		perRank := probeRounds * c.Config.BufferSize * int64(c.Config.Aggregators) / int64(w.Ranks)
		if perRank < 64<<10 {
			perRank = 64 << 10
		}
		probeW := w.Truncate(perRank)
		// The truncated workload keeps w's rank count, which the search's own
		// predictor already validated against the platform.
		probePr, err := newPredictor(s.p, probeW)
		if err != nil {
			return
		}
		probePr.msgPenalty = s.pr.msgPenalty
		predicted, predictedSingle := probePr.predict(c.Config, c.FileOptions, probePr.plan(c.Config, c.FileOptions))
		if c.Config.SingleBuffer {
			predicted = predictedSingle
		}
		outs[i] = outcome{measured: s.p.Probe(c.Config, c.FileOptions, probeW), predicted: predicted}
	})
	var ratioSum float64
	var probed int
	for i := 0; i < k; i++ {
		c := &s.cands[i]
		measured, predicted := outs[i].measured, outs[i].predicted
		if predicted <= 0 || measured <= 0 {
			continue
		}
		c.Probed = measured
		c.Corrected = c.Predicted * (measured / predicted)
		ratioSum += measured / predicted
		probed++
	}
	// Unprobed candidates get the mean observed/predicted ratio, so a
	// systematically optimistic model cannot hand the final pick to a
	// candidate only because it escaped probing.
	if probed > 0 {
		mean := ratioSum / float64(probed)
		for i := range s.cands {
			if s.cands[i].Probed == 0 {
				s.cands[i].Corrected = s.cands[i].Predicted * mean
			}
		}
	}
}

// defaultAggregators derives the coarse aggregator grid: powers of two
// across the plausible range, the library's own default (ranks/16), and the
// storage system's recommended stripe count with 1–8 aggregators per
// stripe (the paper's 2–8-per-OST observation; none where it has no
// striping to recommend).
func defaultAggregators(ranks int, sys storage.System, totalBytes int64) []int {
	set := map[int]bool{}
	add := func(a int) {
		if a >= 1 && a <= ranks {
			set[a] = true
		}
	}
	lo := ranks / 1024
	if lo < 4 {
		lo = 4
	}
	for a := lo; a <= ranks/4; a *= 2 {
		add(a)
	}
	add(ranks / 16)
	c := sys.RecommendStripe(totalBytes, 8<<20, 0).StripeCount
	for m := 1; m <= 8; m *= 2 {
		add(m * c)
	}
	if len(set) == 0 {
		add(1)
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// neighborInts proposes midpoints between v and its nearest grid neighbors
// (the refinement step along the aggregator axis). A best point at either
// edge of the grid refines inward only — refinement never leaves the
// searched range.
func neighborInts(v int, grid []int) []int {
	below, above := 0, 0
	for _, g := range grid {
		if g < v && g > below {
			below = g
		}
		if g > v && (above == 0 || g < above) {
			above = g
		}
	}
	var out []int
	if below > 0 && (v+below)/2 != v {
		out = append(out, (v+below)/2)
	}
	if above > 0 && (v+above)/2 != v {
		out = append(out, (v+above)/2)
	}
	return out
}

// neighborSizes proposes midpoints along the buffer axis, rounded to 1 MB so
// stripe-matched candidates stay sane.
func neighborSizes(v int64, grid []int64) []int64 {
	const mb = 1 << 20
	var below, above int64 = 0, 1 << 62
	for _, g := range grid {
		if g < v && g > below {
			below = g
		}
		if g > v && g < above {
			above = g
		}
	}
	var out []int64
	if below > 0 {
		if m := (v + below) / 2 / mb * mb; m >= mb && m != v {
			out = append(out, m)
		}
	}
	if above < 1<<62 {
		if m := (v + above) / 2 / mb * mb; m >= mb && m != v {
			out = append(out, m)
		}
	}
	return out
}
