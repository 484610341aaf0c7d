package expt

import (
	"fmt"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/netsim"
	"tapioca/internal/par"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/tune"
	"tapioca/internal/workload"
)

// AblationPlacement compares aggregator placement strategies on a Mira
// partition with skewed data (heavy ranks concentrated on part of each
// partition): the cost model should place aggregators near the data and the
// bridge nodes, unlike rank-order/random/adversarial choices. On uniform
// workloads all candidates cost the same and the strategies tie — the skew
// is what gives the objective function something to optimize (paper §IV-B:
// ω(i,A) weights the distances).
func AblationPlacement(env Env) Result {
	nodes := pick(env.Full, 1024, 256)
	rpn := 16
	res := Result{
		ID:     "abl-placement",
		Title:  fmt.Sprintf("Placement strategies, skewed write on Mira (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank(avg)",
		Labels: []string{"TopologyAware", "RankOrder", "Random", "Worst", "TwoLevel"},
	}
	placements := []cost.Placement{
		core.PlacementTopologyAware, core.PlacementRankOrder,
		core.PlacementRandom, core.PlacementWorst,
		core.PlacementTwoLevel,
	}
	mbs := []float64{1, 2}
	res.Rows = runGrid(env, mbs, len(placements), func(row, col int) float64 {
		base := int64(mbs[row] * (1 << 20) / 2)
		r := miraRig(env, nodes, rpn, storage.LockShared)
		// Isolate the aggregation phase: an infinitely fast storage
		// tier exposes what placement does to the network phase
		// (end-to-end, the storage path hides it — see the note).
		r.sys = storage.NewNullFS()
		j := ioJob{
			r:       r,
			subfile: true,
			cfg:     core.Config{Aggregators: 16, BufferSize: 16 << 20, Placement: placements[col]},
			declared: func(rank, ranks int) [][]storage.Seg {
				// The second half of each partition's ranks carries 3x
				// the data of the first half (mean: 2x base).
				size := base
				if rank%(ranks/16) >= ranks/32 {
					size = 3 * base
				}
				// Offsets: prefix layout is rank-dependent; compute the
				// start of this rank's block.
				var off int64
				per := ranks / 16
				half := per / 2
				blockOf := func(rk int) int64 {
					if rk%per >= half {
						return 3 * base
					}
					return base
				}
				for i := 0; i < rank; i++ {
					off += blockOf(i)
				}
				return [][]storage.Seg{{storage.Contig(off, size)}}
			},
		}
		return mustIO(j, methodTapioca)
	})
	res.Notes = append(res.Notes,
		"aggregation phase isolated with a null storage tier; end-to-end, the storage path dominates and placement deltas shrink below 2%")
	return res
}

// AblationMPIIOPlacement compares MPI-IO aggregator placement strategies on
// a Theta collective write: the classic heuristics (rank order stacks
// aggregators on the first nodes; node spread ignores distances) against the
// cost-model strategies that reuse TAPIOCA's engine (internal/cost) — the
// first scenario where the tuned ROMIO baseline sees the interconnect.
func AblationMPIIOPlacement(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	cb := pick(env.Full, 96, 24)
	res := Result{
		ID:     "abl-mpiio-placement",
		Title:  fmt.Sprintf("MPI-IO aggregator strategies, IOR write on Theta (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"RankOrder", "NodeSpread", "TopologyAware", "TwoLevel"},
	}
	strategies := []cost.Placement{
		mpiio.AggrRankOrder, mpiio.AggrNodeSpread,
		mpiio.AggrTopologyAware, mpiio.AggrTwoLevel,
	}
	mbs := []float64{1, 2}
	res.Rows = runGrid(env, mbs, len(strategies), func(row, col int) float64 {
		size := int64(mbs[row] * (1 << 20))
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       r,
			fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20},
			hints: mpiio.Hints{
				CBNodes: cb, CBBufferSize: 8 << 20,
				Strategy: strategies[col], AlignDomains: true, CyclicDomains: true,
			},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methodMPIIO)
	})
	res.Notes = append(res.Notes,
		"rank order funnels every aggregator onto the first nodes (NIC incast); the cost-model strategies spread elections across blocks and minimize hop distance")
	return res
}

// AblationPipeline compares double-buffered aggregation against the
// single-buffer variant on both platforms.
func AblationPipeline(env Env) Result {
	nodesT := pick(env.Full, 512, 128)
	nodesM := pick(env.Full, 1024, 256)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	res := Result{
		ID:     "abl-pipeline",
		Title:  "Double vs single aggregation buffer (micro-benchmark, 2 MB/rank)",
		XLabel: "platform(0=Theta,1=Mira)",
		Labels: []string{"DoubleBuffer", "SingleBuffer"},
	}
	size := int64(2 << 20)
	declared := func(rank, ranks int) [][]storage.Seg {
		return [][]storage.Seg{workload.IORSegs(rank, size)}
	}
	res.Rows = runGrid(env, []float64{0, 1}, 2, func(row, col int) float64 {
		single := col == 1
		var j ioJob
		if row == 0 { // Theta
			j = ioJob{
				r:       thetaRig(env, nodesT, rpn, topology.RouteMinimal, osts),
				fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20},
				cfg:     core.Config{Aggregators: osts, BufferSize: 8 << 20, SingleBuffer: single},
			}
		} else { // Mira
			j = ioJob{
				r:       miraRig(env, nodesM, rpn, storage.LockShared),
				subfile: true,
				cfg:     core.Config{Aggregators: 16, BufferSize: 16 << 20, SingleBuffer: single},
			}
		}
		j.declared = declared
		return mustIO(j, methodTapioca)
	})
	return res
}

// AblationDeclared quantifies the declared-I/O advantage: one Init covering
// all nine HACC variables versus nine separate sessions (the per-call
// behaviour of classic collective I/O), AoS layout on Theta.
func AblationDeclared(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 6)
	aggr := pick(env.Full, 192, 24)
	res := Result{
		ID:     "abl-declared",
		Title:  fmt.Sprintf("Declared I/O vs per-call aggregation, HACC AoS on Theta (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"Declared(1 Init)", "PerCall(9 Inits)"},
	}
	particlesList := []int64{25000, 100000}
	xs := make([]float64, len(particlesList))
	for i, particles := range particlesList {
		xs[i] = float64(particles*workload.ParticleBytes) / (1 << 20)
	}
	res.Rows = runGrid(env, xs, 2, func(row, col int) float64 {
		particles := particlesList[row]
		perCall := col == 1
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		var totalBytes int64
		elapsed, err := r.run(func(c *mpi.Comm, tm *timer) {
			decl := workload.HACCDeclared(c.Rank(), c.Size(), particles, workload.AoS)
			var mine int64
			for _, segs := range decl {
				mine += storage.TotalBytes(segs)
			}
			sum := c.AllreduceI64(mpi.OpSum, mine)
			if c.Rank() == 0 {
				totalBytes = sum
			}
			f := openShared(c, r.sys, "hacc", storage.FileOptions{StripeCount: osts, StripeSize: 16 << 20})
			cfg := core.Config{Aggregators: aggr, BufferSize: 16 << 20}
			tm.Start(c)
			if perCall {
				for _, segs := range decl {
					w := core.New(c, r.sys, f, cfg)
					must(w.Init([][]storage.Seg{segs}))
					must(w.WriteAll())
				}
			} else {
				w := core.New(c, r.sys, f, cfg)
				must(w.Init(decl))
				must(w.WriteAll())
			}
			tm.Stop(c)
		})
		must(err)
		return gbps(totalBytes, elapsed)
	})
	res.Notes = append(res.Notes,
		"per-call sessions flush partially-filled, sparse buffers — the paper's Fig. 2 pathology")
	return res
}

// AblationAggregators sweeps the aggregator count on the Theta
// micro-benchmark (the open tuning question the paper cites: how many
// aggregators collective I/O needs).
func AblationAggregators(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	res := Result{
		ID:     "abl-aggrcount",
		Title:  fmt.Sprintf("Aggregator count, Theta micro-benchmark (%d nodes × %d ranks, 48 OSTs)", nodes, rpn),
		XLabel: "aggregators",
		Labels: []string{"TAPIOCA"},
	}
	size := int64(1 << 20)
	var counts []int
	for _, aggr := range []int{12, 24, 48, 96, 192, 384} {
		if aggr <= nodes*rpn {
			counts = append(counts, aggr)
		}
	}
	xs := make([]float64, len(counts))
	for i, aggr := range counts {
		xs[i] = float64(aggr)
	}
	res.Rows = runGrid(env, xs, 1, func(row, _ int) float64 {
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       r,
			fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20},
			cfg:     core.Config{Aggregators: counts[row], BufferSize: 8 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methodTapioca)
	})
	return res
}

// AblationAutotune closes the tuning loop: on the Theta collective write it
// compares the library defaults, the model-driven autotuner's pick
// (internal/tune), and the best configuration found by an exhaustive
// simulated sweep over the same search space. The tuner only predicts — it
// runs zero simulations — yet its pick must be no slower than the defaults
// and within 10% of the sweep's measured optimum.
func AblationAutotune(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	size := int64(1 << 20)
	w := workload.IOR(nodes*rpn, size)
	aggs := []int{osts, 2 * osts, 4 * osts, 8 * osts}
	bufs := []int64{4 << 20, 8 << 20, 16 << 20}

	// The tuner prices candidates off a rig's calibration without touching
	// its resource state; measurements below each use a fresh rig.
	r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
	res := tune.Autotune(tune.Platform{
		Topo:         r.topo,
		Dist:         r.fab.Distances(),
		Sys:          r.sys,
		RanksPerNode: rpn,
	}, w, tune.Options{
		Aggregators: aggs,
		BufferSizes: bufs,
		Placements:  []cost.Placement{core.PlacementTopologyAware},
		NoRefine:    true,
	})

	measure := func(cfg core.Config, fopt storage.FileOptions) float64 {
		rr := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       rr,
			fileOpt: fopt,
			cfg:     cfg,
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methodTapioca)
	}

	// The default, tuned and every sweep configuration are independent
	// simulations: measure them all on the worker pool, then pick the sweep
	// winner from the index-ordered values (first-best, as the serial loop).
	type cell struct {
		cfg  core.Config
		fopt storage.FileOptions
	}
	cells := []cell{
		{core.Config{}, storage.FileOptions{}},
		{res.Config, res.FileOptions},
	}
	for _, a := range aggs {
		for _, b := range bufs {
			cfg := core.Config{Aggregators: a, BufferSize: b}
			cells = append(cells, cell{cfg, r.sys.RecommendStripe(w.TotalBytes(), b, a)})
		}
	}
	vals := runCells(env, len(cells), func(i int) float64 {
		return measure(cells[i].cfg, cells[i].fopt)
	})
	defGB, tunedGB := vals[0], vals[1]
	var sweepGB float64
	var sweepCfg core.Config
	for i, gb := range vals[2:] {
		if gb > sweepGB {
			sweepGB, sweepCfg = gb, cells[i+2].cfg
		}
	}

	return Result{
		ID:     "abl-autotune",
		Title:  fmt.Sprintf("Autotuned vs default vs exhaustive sweep, IOR write on Theta (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"Default", "Autotuned", "SweepBest"},
		Rows:   []Row{{X: float64(size) / (1 << 20), Values: []float64{defGB, tunedGB, sweepGB}}},
		Notes: []string{
			fmt.Sprintf("tuner picked %d aggregators, %d MB buffers, %d×%d MB stripes (%d candidates scored, %.1f ms predicted)",
				res.Config.Aggregators, res.Config.BufferSize>>20,
				res.FileOptions.StripeCount, res.FileOptions.StripeSize>>20,
				res.Evaluated, res.Predicted*1e3),
			fmt.Sprintf("sweep best: %d aggregators, %d MB buffers over %d simulated configurations",
				sweepCfg.Aggregators, sweepCfg.BufferSize>>20, len(aggs)*len(bufs)),
			"defaults write a 1-OST file with 1 MB stripes — the Figure 8 pathology the tuner must escape",
		},
	}
}

// AblationIntraNode measures what intra-node pre-aggregation buys: the same
// Theta collective write at increasing ranks-per-node density, flat (every
// rank puts to its aggregator over the fabric) versus staged (co-located
// ranks deposit into a node leader at memory bandwidth and one coalesced put
// per node-group crosses the fabric per round). The aggregation phase is
// isolated with a null storage tier, and each cell reports the inter-node
// fabric message count alongside bandwidth — the claim under test is the
// ppn-fold message collapse, and the note rows carry the measured ratios.
//
// The ablation asserts its own claims: at ppn ≥ 8 staging must cut fabric
// messages at least 2x, and at ppn = 1 it must change nothing (every node
// group is a singleton, so the staged schedule degenerates to the flat one).
//
// Two fabric regimes per density. On a clean fabric the wormhole model
// conserves bytes — the aggregator's ejection NIC carries the same payload
// either way — so staging's deposit hop costs a sliver and flat wins on
// wall-clock; the message collapse buys nothing *per se*. On a lossy fabric
// the per-transfer retransmit penalty is a fixed cost per message, so the
// ppn-fold collapse translates directly into fewer retransmit timeouts —
// that regime is where coalescing must win wall-clock, and the ablation
// asserts it does at the highest density (at moderate densities the few
// coalesced messages make the loss draw noisy: one unlucky 8 MB retransmit
// can erase the expected win, which is itself informative and stays visible
// in the rows).
func AblationIntraNode(env Env) Result {
	nodes := pick(env.Full, 256, 64)
	osts := pick(env.Full, 48, 12)
	aggr := pick(env.Full, 32, 16)
	size := int64(1 << 20)
	ppns := []int{1, 2, 4, 8, 16}
	// Lossy-fabric regime: a small per-transfer drop probability with a
	// timeout-driven retransmit (RTO-scale, fixed per message — the dominant
	// real-world cost of a drop, and deliberately larger than any single
	// transfer's serialization time so the per-message term is what the
	// regime measures).
	const lossRate = 0.1
	const retransmitRTO = 500_000 // 500µs
	res := Result{
		ID:     "abl-intranode",
		Title:  fmt.Sprintf("Intra-node pre-aggregation, IOR write on Theta (%d nodes, ppn sweep)", nodes),
		XLabel: "ranks/node",
		Labels: []string{"Flat", "Staged", "Flat/lossy", "Staged/lossy"},
	}
	type out struct {
		gb   float64
		msgs int64
	}
	cells := make([]out, 4*len(ppns))
	par.Map(env.Width(), len(cells), func(i int) {
		ppn, staged, lossy := ppns[i/4], i%2 == 1, i%4 >= 2
		r := thetaRig(env, nodes, ppn, topology.RouteMinimal, osts)
		// Isolate the aggregation phase: an infinitely fast storage tier
		// exposes what the staging hop does to the network phase.
		r.sys = storage.NewNullFS()
		if lossy {
			// Network-plane faults only (no storage/corruption/death classes):
			// the deterministic plan drops a fixed fraction of transfers, each
			// paying the retransmit timeout — a per-message cost.
			r.fab.SetFaults(fault.NewPlan(fault.Config{
				Seed:              11,
				NetLossRate:       lossRate,
				RetransmitPenalty: retransmitRTO,
			}))
		}
		// Both arms pin their shape, so an armed -tree shape leaves them be.
		shape := &tree.Shape{Kind: tree.Flat}
		if staged {
			shape = &tree.Shape{Kind: tree.NodeStaged}
		}
		j := ioJob{
			r:   r,
			cfg: core.Config{Aggregators: aggr, BufferSize: 8 << 20, Tree: shape},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		gb := mustIO(j, methodTapioca)
		cells[i] = out{gb: gb, msgs: r.fab.FabricMessages()}
	})
	for i, ppn := range ppns {
		flat, staged := cells[4*i], cells[4*i+1]
		lossyFlat, lossyStaged := cells[4*i+2], cells[4*i+3]
		res.Rows = append(res.Rows, Row{X: float64(ppn),
			Values: []float64{flat.gb, staged.gb, lossyFlat.gb, lossyStaged.gb}})
		ratio := float64(flat.msgs) / float64(staged.msgs)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"ppn=%d: fabric messages %d flat vs %d staged (%.1fx); lossy fabric %.1f vs %.1f GB/s (%.2fx)",
			ppn, flat.msgs, staged.msgs, ratio, lossyFlat.gb, lossyStaged.gb, lossyStaged.gb/lossyFlat.gb))
		if ppn >= 8 && ratio < 2 {
			must(fmt.Errorf("abl-intranode: staging cut fabric messages only %.2fx at ppn=%d, claim requires ≥ 2x", ratio, ppn))
		}
		if ppn == 1 && flat.msgs != staged.msgs {
			must(fmt.Errorf("abl-intranode: staging changed the ppn=1 message count (%d flat vs %d staged), must be a no-op", flat.msgs, staged.msgs))
		}
		if ppn == ppns[len(ppns)-1] && lossyStaged.gb <= lossyFlat.gb {
			must(fmt.Errorf("abl-intranode: staged %.1f GB/s did not beat flat %.1f GB/s on the lossy fabric at ppn=%d",
				lossyStaged.gb, lossyFlat.gb, ppn))
		}
	}
	return res
}

// AblationTree measures what synthesized aggregation trees buy over the two
// fixed data planes: the same Theta collective write at increasing partition
// width (compute nodes per aggregation partition — the knob that grows the
// reduction tree), flat versus node-staged versus the autotuner's searched
// tree shape. The shape is not hand-picked: each row runs the real
// tree-search dimension (tune.Options.TreeSearch) with the lossy regime's
// expected per-message cost as the penalty, and the cells execute whatever
// the search proposed — including at narrow widths, where the honest answer
// is a degenerate shape (an interior relay re-serializes its subtree's bytes,
// and below a width threshold that costs more than the messages it saves, so
// the search correctly declines a tree and the Tree column tracks Staged).
// The aggregation phase is isolated with a null storage tier and each cell
// reports the inter-node fabric message count alongside bandwidth.
//
// Two fabric regimes. On a clean fabric the wormhole model conserves bytes,
// so the extra relay hop costs a sliver and the tree is expected to trail
// the fixed planes on wall-clock — that column is the honest cost of the
// shape. The lossy regime is deliberately harsher than abl-intranode's
// (higher drop rate, full RTO-scale retransmits): every message pays a
// retransmit penalty in expectation, and the root's NIC serializes its
// ingest, so flat pays the penalty per rank, staged per node — but all at
// one NIC — while an interior level batches the root's ingest into a few
// large relay messages and pays the per-message price in parallel across
// relay NICs. That is the regime the tree search is told about (its message
// penalty is the regime's expected per-drop cost), closing the loop between
// the pricer and the fabric the cells run on. The ablation asserts its own
// claims: the search must propose an interior shape at the widest partition,
// an interior tree must book several-fold fewer fabric messages than flat,
// the degenerate flat/staged shapes must reproduce the plain pipelines
// exactly (identical wall-clock and message counts), and at the widest
// partition the searched tree must beat both fixed planes on the lossy
// fabric.
func AblationTree(env Env) Result {
	nodes := pick(env.Full, 512, 64)
	rpn := pick(env.Full, 16, 8)
	osts := pick(env.Full, 48, 12)
	widths := []int{16, 32, 64}
	// Strided small-block workload (the HACC-style interleaved layout): every
	// rank contributes one small block to every stripe, so every node group
	// sends one small coalesced put in every aggregation round. That is the
	// many-small-messages regime trees exist for — per-message costs dominate
	// serialization — and it keeps the engagement uniform, so the search's
	// per-round pricing reasons about the same schedule the cells execute.
	// (With multi-MB contiguous blocks each rank engages a single round, the
	// byte stream dwarfs the per-message penalty, and staged is simply
	// correct; abl-intranode covers that regime.)
	blk := int64(16 << 10)
	nblocks := pick(env.Full, 8, 16)
	strided := workload.Pattern{
		Name:  "strided",
		Ranks: nodes * rpn,
		Declared: func(rank, ranks int) [][]storage.Seg {
			segs := make([]storage.Seg, nblocks)
			for j := range segs {
				segs[j] = storage.Contig((int64(j)*int64(ranks)+int64(rank))*blk, blk)
			}
			return [][]storage.Seg{segs}
		},
	}
	// Deep-loss fabric regime: deterministic drops, each retransmitted after
	// a full RTO — a fixed per-message cost. Its expectation (rate × RTO) is
	// exactly the message penalty handed to the shape search, so the tuner
	// prices shapes against the fabric the lossy cells run on.
	const lossRate = 0.2
	const retransmitRTO = 1_000_000 // 1ms
	const msgPenalty = lossRate * retransmitRTO * 1e-9

	res := Result{
		ID:     "abl-tree",
		Title:  fmt.Sprintf("Synthesized aggregation trees, strided write on Theta (%d nodes × %d ranks, width sweep)", nodes, rpn),
		XLabel: "nodes/partition",
		Labels: []string{"Flat", "Staged", "Tree", "Flat/lossy", "Staged/lossy", "Tree/lossy"},
	}

	// One shape search per row, through the public autotuner surface: a
	// pinned grid point so the only open dimension is the tree shape.
	shapes := make([]*tree.Shape, len(widths))
	for i, width := range widths {
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		tres := tune.Autotune(tune.Platform{
			Topo:         r.topo,
			Dist:         r.fab.Distances(),
			Sys:          r.sys,
			RanksPerNode: rpn,
		}, strided, tune.Options{
			Aggregators:    []int{nodes / width},
			BufferSizes:    []int64{8 << 20},
			Placements:     []cost.Placement{core.PlacementTopologyAware},
			NoRefine:       true,
			TreeSearch:     true,
			MessagePenalty: msgPenalty,
		})
		sh := tres.Config.Shape()
		shapes[i] = &sh
		if width == widths[len(widths)-1] && shapes[i].Degenerate() {
			must(fmt.Errorf("abl-tree: the shape search did not pick an interior tree at %d nodes/partition", width))
		}
	}

	type out struct {
		gb   float64
		msgs int64
	}
	nrows := len(widths)
	// 6 grid cells per row, plus two degeneracy probes at the widest row:
	// the degenerate tree shapes (flat, staged), run as independent cells,
	// must reproduce the flat and staged arms exactly. Every cell pins its
	// shape, so an armed -tree shape leaves the figure unchanged.
	cells := make([]out, 6*nrows+2)
	par.Map(env.Width(), len(cells), func(i int) {
		// The probes (i ≥ 6·nrows) rerun the widest row's flat and staged arms.
		row, variant, lossy := nrows-1, i-6*nrows, false
		if i < 6*nrows {
			row, variant, lossy = i/6, i%3, i%6 >= 3
		}
		shape := shapes[row]
		switch variant {
		case 0:
			shape = &tree.Shape{Kind: tree.Flat}
		case 1:
			shape = &tree.Shape{Kind: tree.NodeStaged}
		}
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		// Isolate the aggregation phase: an infinitely fast storage tier
		// exposes what the reduction shape does to the network phase.
		r.sys = storage.NewNullFS()
		if lossy {
			r.fab.SetFaults(fault.NewPlan(fault.Config{
				Seed:              11,
				NetLossRate:       lossRate,
				RetransmitPenalty: retransmitRTO,
			}))
		}
		j := ioJob{
			r: r,
			cfg: core.Config{
				Aggregators: nodes / widths[row],
				BufferSize:  8 << 20,
				Tree:        shape,
			},
			declared: strided.Declared,
		}
		gb := mustIO(j, methodTapioca)
		cells[i] = out{gb: gb, msgs: r.fab.FabricMessages()}
	})

	for i, width := range widths {
		flat, staged, treed := cells[6*i], cells[6*i+1], cells[6*i+2]
		lFlat, lStaged, lTree := cells[6*i+3], cells[6*i+4], cells[6*i+5]
		res.Rows = append(res.Rows, Row{X: float64(width),
			Values: []float64{flat.gb, staged.gb, treed.gb, lFlat.gb, lStaged.gb, lTree.gb}})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"width=%d: searched shape %s; fabric messages %d flat / %d staged / %d tree; lossy fabric %.1f / %.1f / %.1f GB/s",
			width, shapes[i], flat.msgs, staged.msgs, treed.msgs, lFlat.gb, lStaged.gb, lTree.gb))
		if !shapes[i].Degenerate() && treed.msgs*4 >= flat.msgs {
			must(fmt.Errorf("abl-tree: tree booked %d fabric messages vs %d flat at width=%d, claim requires a >4x cut",
				treed.msgs, flat.msgs, width))
		}
		if width == widths[nrows-1] && (lTree.gb <= lFlat.gb || lTree.gb <= lStaged.gb) {
			must(fmt.Errorf("abl-tree: searched tree %.1f GB/s did not beat flat %.1f / staged %.1f GB/s on the lossy fabric at width=%d",
				lTree.gb, lFlat.gb, lStaged.gb, width))
		}
	}
	dFlat, dStaged := cells[6*nrows], cells[6*nrows+1]
	flat, staged := cells[6*(nrows-1)], cells[6*(nrows-1)+1]
	if dFlat != flat || dStaged != staged {
		must(fmt.Errorf("abl-tree: degenerate tree shapes diverged from the plain pipelines (flat %+v vs %+v, staged %+v vs %+v)",
			dFlat, flat, dStaged, staged))
	}
	res.Notes = append(res.Notes,
		"degenerate tree shapes (flat, staged) reproduced the plain pipelines exactly: identical wall-clock and fabric message counts")
	return res
}

// contentionRig builds abl-contention's Theta platform under the given
// contention model, on a private topology and without fault arming.
func contentionRig(env Env, nodes, rpn, osts, contention int) *rig {
	topo := topology.ThetaDragonfly(nodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: contention})
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: osts})
	return &rig{env: env, topo: topo, fab: fab, sys: sys, nodes: nodes, rpn: rpn}
}

// AblationContention compares the per-link and endpoint-only network
// contention models (a simulator-fidelity knob, not a paper experiment).
func AblationContention(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	res := Result{
		ID:     "abl-contention",
		Title:  fmt.Sprintf("Contention models, Theta micro-benchmark (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"PerLink", "EndpointOnly"},
	}
	size := int64(2 << 20)
	modes := []int{netsim.ContentionLinks, netsim.ContentionEndpoint}
	res.Rows = runGrid(env, []float64{2}, len(modes), func(_, col int) float64 {
		j := ioJob{
			r:       contentionRig(env, nodes, rpn, osts, modes[col]),
			fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20},
			cfg:     core.Config{Aggregators: osts, BufferSize: 8 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methodTapioca)
	})
	return res
}
