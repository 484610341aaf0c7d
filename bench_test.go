package tapioca_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment grid at the
// reduced scale (same shapes as the paper; see EXPERIMENTS.md) and reports
// the headline numbers as custom metrics:
//
//	tapioca_GBps   TAPIOCA bandwidth at the largest data size
//	baseline_GBps  the MPI-IO (or untuned) comparison point
//	speedup        their ratio — the paper's headline claim per figure
//
// Figure grids execute their independent cells on the bounded worker pool
// (internal/par) by default, so ns/op here tracks the parallel wall clock;
// BenchmarkFig10_MicroThetaSerial pins the serial reference. Full-scale runs
// (the paper's node counts, up to 65,536 simulated ranks) are available
// through cmd/tapiocabench -scale full.

import (
	"testing"

	"tapioca"
	"tapioca/internal/cost"
	"tapioca/internal/expt"
	"tapioca/internal/topology"
)

// runFigure executes the experiment b.N times under env and reports the
// headline metrics at the given indices into the result's series.
func runFigure(b *testing.B, spec *expt.Spec, env expt.Env, tapiocaCol, baselineCol int) {
	b.Helper()
	var res expt.Result
	for i := 0; i < b.N; i++ {
		res, _ = spec.Run(env)
	}
	last := res.Rows[len(res.Rows)-1]
	tap := last.Values[tapiocaCol]
	base := last.Values[baselineCol]
	b.ReportMetric(tap, "tapioca_GB/s")
	b.ReportMetric(base, "baseline_GB/s")
	if base > 0 {
		b.ReportMetric(tap/base, "speedup")
	}
}

// BenchmarkFig07_IORMira regenerates Fig. 7: IOR on Mira, baseline vs
// user-tuned MPI-IO (read and write). The "speedup" metric is
// optimized-write over baseline-write (paper: ~3x at 4 MB).
func BenchmarkFig07_IORMira(b *testing.B) {
	runFigure(b, expt.ByID("fig7"), expt.Env{}, 1, 3)
}

// BenchmarkFig08_IORTheta regenerates Fig. 8: IOR on Theta, tuned vs
// platform defaults. Speedup is optimized-write over baseline-write
// (paper: ~50x on a log-scale figure).
func BenchmarkFig08_IORTheta(b *testing.B) {
	runFigure(b, expt.ByID("fig8"), expt.Env{}, 1, 3)
}

// BenchmarkFig09_MicroMira regenerates Fig. 9: the micro-benchmark on Mira
// (paper: TAPIOCA ≈ MPI-IO).
func BenchmarkFig09_MicroMira(b *testing.B) {
	runFigure(b, expt.ByID("fig9"), expt.Env{}, 0, 1)
}

// BenchmarkFig10_MicroTheta regenerates Fig. 10: the micro-benchmark on
// Theta (paper: TAPIOCA ~2x at 3.6 MB/rank).
func BenchmarkFig10_MicroTheta(b *testing.B) {
	runFigure(b, expt.ByID("fig10"), expt.Env{}, 0, 1)
}

// BenchmarkFig10_MicroThetaSerial runs the same grid with the worker pool
// disabled: the serial reference for the parallel runner's wall-clock win
// (results are identical by construction — see TestParallelRunMatchesSerial
// in internal/expt).
func BenchmarkFig10_MicroThetaSerial(b *testing.B) {
	runFigure(b, expt.ByID("fig10"), expt.Env{Workers: 1}, 0, 1)
}

// BenchmarkTable1_BufferStripeRatio regenerates Table I: the
// aggregation-buffer:stripe-size ratio study (paper: 1:1 optimal).
// Metrics: the 1:1 bandwidth and the worst ratio's bandwidth.
func BenchmarkTable1_BufferStripeRatio(b *testing.B) {
	var res expt.Result
	for i := 0; i < b.N; i++ {
		res = expt.Table1(expt.Env{})
	}
	var oneToOne, worst float64
	for _, row := range res.Rows {
		v := row.Values[0]
		if row.X == 1 {
			oneToOne = v
		}
		if worst == 0 || v < worst {
			worst = v
		}
	}
	b.ReportMetric(oneToOne, "ratio1to1_GB/s")
	b.ReportMetric(worst, "worstRatio_GB/s")
	b.ReportMetric(oneToOne/worst, "peak_over_worst")
}

// BenchmarkFig11_HACCMira1K regenerates Fig. 11: HACC-IO on Mira, 1,024
// nodes scale. Speedup is TAPIOCA-AoS over MPI-IO-AoS (paper: up to ~12x).
func BenchmarkFig11_HACCMira1K(b *testing.B) {
	runFigure(b, expt.ByID("fig11"), expt.Env{}, 0, 1)
}

// BenchmarkFig12_HACCMira4K regenerates Fig. 12: HACC-IO on Mira at 4x the
// scale (paper: same shape, ~90% of peak).
func BenchmarkFig12_HACCMira4K(b *testing.B) {
	if testing.Short() {
		b.Skip("fig12 runs 8,192 simulated ranks")
	}
	runFigure(b, expt.ByID("fig12"), expt.Env{}, 0, 1)
}

// BenchmarkFig13_HACCTheta1K regenerates Fig. 13: HACC-IO on Theta
// (paper: ~7x over MPI-IO at ~1 MB/rank).
func BenchmarkFig13_HACCTheta1K(b *testing.B) {
	runFigure(b, expt.ByID("fig13"), expt.Env{}, 0, 1)
}

// BenchmarkFig14_HACCTheta2K regenerates Fig. 14: HACC-IO on Theta at 2,048
// nodes scale (paper: ~4x at 3.6 MB/rank AoS).
func BenchmarkFig14_HACCTheta2K(b *testing.B) {
	runFigure(b, expt.ByID("fig14"), expt.Env{}, 0, 1)
}

// BenchmarkAblationPlacement quantifies the aggregator placement cost model
// (aggregation phase isolated; speedup = topology-aware over adversarial).
func BenchmarkAblationPlacement(b *testing.B) {
	runFigure(b, expt.ByID("abl-placement"), expt.Env{}, 0, 3)
}

// BenchmarkAblationPipeline quantifies double buffering on Theta
// (speedup = double over single buffer).
func BenchmarkAblationPipeline(b *testing.B) {
	var res expt.Result
	for i := 0; i < b.N; i++ {
		res = expt.AblationPipeline(expt.Env{})
	}
	theta := res.Rows[0]
	b.ReportMetric(theta.Values[0], "double_GB/s")
	b.ReportMetric(theta.Values[1], "single_GB/s")
	b.ReportMetric(theta.Values[0]/theta.Values[1], "speedup")
}

// BenchmarkAblationDeclaredIO quantifies declared I/O against per-call
// aggregation on the HACC AoS workload (the paper's Fig. 2 argument).
func BenchmarkAblationDeclaredIO(b *testing.B) {
	runFigure(b, expt.ByID("abl-declared"), expt.Env{}, 0, 1)
}

// BenchmarkAblationAggregators sweeps the aggregator count (reports the
// best observed bandwidth).
func BenchmarkAblationAggregators(b *testing.B) {
	var res expt.Result
	for i := 0; i < b.N; i++ {
		res = expt.AblationAggregators(expt.Env{})
	}
	var best float64
	for _, row := range res.Rows {
		if row.Values[0] > best {
			best = row.Values[0]
		}
	}
	b.ReportMetric(best, "best_GB/s")
}

// BenchmarkAblationContention compares the per-link and endpoint-only
// network models (storage-bound workloads should agree).
func BenchmarkAblationContention(b *testing.B) {
	runFigure(b, expt.ByID("abl-contention"), expt.Env{}, 0, 1)
}

// BenchmarkAutotune measures the model-driven configuration search itself —
// scoring the whole candidate grid (plan estimation, elections, flush
// pricing) for a Theta collective write, with zero simulations. The picked
// aggregator count and buffer size are reported as metrics so trajectory
// tracking catches a silently changed pick.
func BenchmarkAutotune(b *testing.B) {
	m := tapioca.Theta(128)
	w := tapioca.IORWorkload(128*16, 1<<20)
	var cfg tapioca.Config
	for i := 0; i < b.N; i++ {
		cfg, _, _ = tapioca.Autotune(m, w)
	}
	b.ReportMetric(float64(cfg.Aggregators), "aggregators")
	b.ReportMetric(float64(cfg.BufferSize>>20), "buffer_MB")
}

// BenchmarkAutotuneEndToEnd races the tuned configuration against the
// library defaults end to end (the abl-autotune grid): tapioca_GB/s is the
// tuned write, baseline_GB/s the defaults, speedup their ratio.
func BenchmarkAutotuneEndToEnd(b *testing.B) {
	runFigure(b, expt.ByID("abl-autotune"), expt.Env{}, 1, 0)
}

// electionMembers spreads nRanks members across a topology's nodes with a
// mild data skew, the shape an aggregator election sees.
func electionMembers(topo topology.Topology, nRanks int) []cost.Member {
	members := make([]cost.Member, nRanks)
	for i := range members {
		members[i] = cost.Member{
			Node:  i * topo.Nodes() / nRanks,
			Bytes: int64(i%7+1) << 18,
		}
	}
	return members
}

// referenceScan prices every member's candidacy one candidate at a time
// through Model.CandidacyCost — the per-rank election of the paper, each
// member walking every other member through the distance cache — and
// returns the MINLOC winner.
func referenceScan(m *cost.Model, members []cost.Member, ioBytes int64) int {
	best, bestCost := 0, 0.0
	for cand := range members {
		if c := m.CandidacyCost(members, cand, ioBytes); cand == 0 || c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best
}

// electionBench compares the per-candidate reference scan with the batched
// TopologyAware election (one pass over node classes) on one member table,
// both electing the same winner. fresh gives every iteration a new machine
// model, as a newly built platform has: the reference then fills a distance
// cache row per node it prices from; otherwise the model, and its cache,
// is shared and warm.
func electionBench(b *testing.B, topo topology.Topology, members []cost.Member, fresh bool) {
	model := func() *cost.Model { return cost.NewModel(topo) }
	if !fresh {
		m := cost.NewModel(topo)
		referenceScan(m, members, 1<<26)
		model = func() *cost.Model { return m }
	}
	want := referenceScan(cost.NewModel(topo), members, 1<<26)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := referenceScan(model(), members, 1<<26); got != want {
				b.Fatalf("winner = %d, want %d", got, want)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		aware := cost.TopologyAware()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &cost.Election{Model: model(), Members: members, IOBytes: 1 << 26}
			if got := aware.Elect(e); got != want {
				b.Fatalf("winner = %d, want %d", got, want)
			}
		}
	})
}

// benchMachine is a named topology the election benchmarks run on.
type benchMachine struct {
	name string
	topo topology.Topology
}

// benchMachines returns the 512-node instances of both platforms.
func benchMachines() []benchMachine {
	return []benchMachine{
		{"theta512", topology.ThetaDragonfly(512, topology.RouteMinimal)},
		{"mira512", topology.MiraTorus(512)},
	}
}

// BenchmarkCostModel prices a 1,024-member partition spread over the whole
// machine, about two members per node, with a warm distance cache. This is
// the batch's worst case, kept in view: with nearly as many node classes as
// members it asks the topology for about n² distances where the warm
// reference reads n² cached entries, so the reference is faster here.
func BenchmarkCostModel(b *testing.B) {
	for _, mc := range benchMachines() {
		b.Run(mc.name, func(b *testing.B) {
			electionBench(b, mc.topo, electionMembers(mc.topo, 1024), false)
		})
	}
}

// BenchmarkElection prices a 512-member partition of 16 ranks per node, the
// shape a TAPIOCA or MPI-IO aggregator block has, on a freshly built
// machine model per election.
func BenchmarkElection(b *testing.B) {
	for _, mc := range benchMachines() {
		members := make([]cost.Member, 512)
		for i := range members {
			members[i] = cost.Member{Node: 64 + i/16, Bytes: int64(i%7+1) << 18}
		}
		b.Run(mc.name, func(b *testing.B) { electionBench(b, mc.topo, members, true) })
	}
}
