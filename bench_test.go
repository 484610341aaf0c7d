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

// costModelBench measures one full candidate scan (every member priced as
// aggregator — the O(P²) distance pattern elections produce).
func costModelBench(b *testing.B, m *cost.Model, members []cost.Member) {
	b.Helper()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		for cand := range members {
			sink += m.CandidacyCost(members, cand, 1<<24)
		}
	}
	if sink == 0 {
		b.Fatal("no cost evaluated")
	}
}

// BenchmarkCostModel quantifies the memoized distance cache on a Theta(512)
// dragonfly: the same candidate scan with cached vs uncached lookups. The
// cached variant amortizes each node pair to an array read (the refactor's
// claimed speedup; expect an order of magnitude at this scale).
func BenchmarkCostModel(b *testing.B) {
	topo := topology.ThetaDragonfly(512, topology.RouteMinimal)
	members := electionMembers(topo, 1024)
	b.Run("cached", func(b *testing.B) {
		m := cost.NewModel(topo) // private cache, warmed on first iteration
		costModelBench(b, m, members)
	})
	b.Run("uncached", func(b *testing.B) {
		costModelBench(b, cost.NewModel(topo, cost.Uncached()), members)
	})
}

// BenchmarkElection measures end-to-end local-mode elections (what MPI-IO's
// AggrTopologyAware runs per aggregator block) at 512 nodes on both
// platforms, cached vs uncached.
func BenchmarkElection(b *testing.B) {
	for _, tc := range []struct {
		name string
		topo topology.Topology
	}{
		{"theta512", topology.ThetaDragonfly(512, topology.RouteMinimal)},
		{"mira512", topology.MiraTorus(512)},
	} {
		members := electionMembers(tc.topo, 512)
		for _, cached := range []bool{true, false} {
			name := tc.name + "/uncached"
			opts := []cost.Option{cost.Uncached()}
			if cached {
				name = tc.name + "/cached"
				opts = nil
			}
			b.Run(name, func(b *testing.B) {
				m := cost.NewModel(tc.topo, opts...)
				e := &cost.Election{Model: m, Members: members, IOBytes: 1 << 26}
				aware := cost.TopologyAware()
				b.ReportAllocs()
				winner := -1
				for i := 0; i < b.N; i++ {
					winner = aware.Elect(e)
				}
				if winner < 0 || winner >= len(members) {
					b.Fatalf("winner = %d", winner)
				}
			})
		}
	}
}
