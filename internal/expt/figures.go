package expt

import (
	"fmt"

	"tapioca/internal/core"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// openShared creates (rank 0) or looks up a file and shares the handle.
func openShared(c *mpi.Comm, sys storage.System, name string, opt storage.FileOptions) *storage.File {
	var f *storage.File
	if c.Rank() == 0 {
		f = sys.Lookup(name)
		if f == nil {
			f = sys.Create(name, opt)
		}
	}
	return c.Bcast(0, 32, f).(*storage.File)
}

// I/O methods under comparison.
const (
	methodMPIIO = iota
	methodTapioca
)

// ioJob describes one measured collective I/O operation.
type ioJob struct {
	r       *rig
	subfile bool // file per Pset (the Mira experiments)
	fileOpt storage.FileOptions
	hints   mpiio.Hints // MPI-IO settings
	cfg     core.Config // TAPIOCA settings
	// declared returns the per-call patterns for a rank of a file group
	// (group = Pset when subfiling, else the world).
	declared func(rank, ranks int) [][]storage.Seg
	read     bool
}

// runIO executes the job under the given method and returns GB/s.
func runIO(j ioJob, method int) (float64, error) {
	var totalBytes int64
	elapsed, err := j.r.run(func(c *mpi.Comm, tm *timer) {
		group := c
		fileName := "data"
		if j.subfile {
			pset := j.r.topo.IONodeOf(c.Node())
			group = c.Split(pset, c.Rank())
			fileName = fmt.Sprintf("data-pset%d", pset)
		}
		decl := j.declared(group.Rank(), group.Size())
		var mine int64
		for _, segs := range decl {
			mine += storage.TotalBytes(segs)
		}
		sum := c.AllreduceI64(mpi.OpSum, mine)
		if c.Rank() == 0 {
			totalBytes = sum
		}

		switch method {
		case methodTapioca:
			f := openShared(group, j.r.sys, fileName, j.fileOpt)
			w := core.New(group, j.r.sys, f, j.r.session(j.cfg))
			tm.Start(c)
			must(w.Init(decl))
			if j.read {
				must(w.ReadAll())
			} else {
				must(w.WriteAll())
			}
			tm.Stop(c)
		default:
			fh := mpiio.Open(group, j.r.sys, fileName, j.fileOpt, j.r.hints(j.hints))
			tm.Start(c)
			for _, segs := range decl {
				if j.read {
					must(fh.ReadAtAll(segs))
				} else {
					must(fh.WriteAtAll(segs))
				}
			}
			tm.Stop(c)
		}
	})
	if err != nil {
		return 0, err
	}
	return gbps(totalBytes, elapsed), nil
}

// mustIO is runIO with panic-on-error (experiment definitions are static).
func mustIO(j ioJob, method int) float64 {
	v, err := runIO(j, method)
	must(err)
	return v
}

// pick returns full or reduced depending on the scale switch.
func pick(full bool, fullVal, reduced int) int {
	if full {
		return fullVal
	}
	return reduced
}

// iorSizesMB is the per-rank data-size sweep of Figs. 7–8 (0.2–4 MB).
var iorSizesMB = []float64{0.25, 0.5, 1, 2, 4}

// microSizesMB is the sweep of Figs. 9–10 (up to 3.6 MB).
var microSizesMB = []float64{0.5, 1, 2, 3.6}

// haccParticles is the per-rank particle sweep of Figs. 11–14
// (5K–100K particles ≈ 0.19–3.8 MB).
var haccParticles = []int64{5000, 10000, 25000, 50000, 100000}

// Fig7 reproduces the Mira IOR tuning study: baseline (exclusive GPFS
// tokens, unaligned domains) vs optimized (shared locks, aligned domains),
// read and write, file per Pset.
func Fig7(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	res := Result{
		ID:     "fig7",
		Title:  fmt.Sprintf("IOR on Mira (%d nodes × %d ranks), file per Pset", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"Optimized-Read", "Optimized-Write", "Baseline-Read", "Baseline-Write"},
	}
	variants := []struct {
		lockMode int
		align    bool
		read     bool
	}{
		{storage.LockShared, true, true},
		{storage.LockShared, true, false},
		{storage.LockExclusive, false, true},
		{storage.LockExclusive, false, false},
	}
	res.Rows = runGrid(env, iorSizesMB, len(variants), func(row, col int) float64 {
		size := int64(iorSizesMB[row] * (1 << 20))
		variant := variants[col]
		r := miraRig(env, nodes, rpn, variant.lockMode)
		j := ioJob{
			r:       r,
			subfile: true,
			hints: mpiio.Hints{
				CBNodes:      16,
				CBBufferSize: 16 << 20,
				Strategy:     mpiio.AggrBridgeFirst,
				AlignDomains: variant.align,
			},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
			read: variant.read,
		}
		return mustIO(j, methodMPIIO)
	})
	res.Notes = append(res.Notes,
		"paper: optimized read +13%, optimized write ~3x baseline at 4 MB")
	return res
}

// Fig8 reproduces the Theta IOR tuning study: baseline (1 OST, 1 MB
// stripes, adaptive routing) vs optimized (48 OSTs, 8 MB stripes, minimal
// routing, 2 aggregators per OST, aligned domains).
func Fig8(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	cb := pick(env.Full, 96, 24)
	res := Result{
		ID:     "fig8",
		Title:  fmt.Sprintf("IOR on Theta (%d nodes × %d ranks)", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"Optimized-Read", "Optimized-Write", "Baseline-Read", "Baseline-Write"},
	}
	variants := []struct {
		optimized bool
		read      bool
	}{{true, true}, {true, false}, {false, true}, {false, false}}
	res.Rows = runGrid(env, iorSizesMB, len(variants), func(row, col int) float64 {
		size := int64(iorSizesMB[row] * (1 << 20))
		variant := variants[col]
		routing := topology.RouteValiant
		fileOpt := storage.FileOptions{} // platform defaults: 1 OST, 1 MB
		hints := mpiio.Hints{CBNodes: nodes, CBBufferSize: 16 << 20, Strategy: mpiio.AggrNodeSpread}
		if variant.optimized {
			routing = topology.RouteMinimal
			fileOpt = storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20}
			hints = mpiio.Hints{CBNodes: cb, CBBufferSize: 8 << 20, Strategy: mpiio.AggrNodeSpread, AlignDomains: true, CyclicDomains: true}
		}
		r := thetaRig(env, nodes, rpn, routing, osts)
		j := ioJob{
			r:       r,
			fileOpt: fileOpt,
			hints:   hints,
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
			read: variant.read,
		}
		return mustIO(j, methodMPIIO)
	})
	res.Notes = append(res.Notes,
		"paper: baseline read ~0.8 GB/s -> optimized ~36; baseline write ~0.2 -> ~10 (log-scale figure)")
	return res
}

// Fig9 compares TAPIOCA and MPI-IO with the micro-benchmark on Mira
// (expected: parity — the pattern is uniform and the BG/Q MPI-IO stack is
// well tuned).
func Fig9(env Env) Result {
	nodes := pick(env.Full, 1024, 256)
	rpn := 16
	res := Result{
		ID:     "fig9",
		Title:  fmt.Sprintf("Micro-benchmark on Mira (%d nodes × %d ranks), file per Pset", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"TAPIOCA", "MPI-IO"},
	}
	methods := []int{methodTapioca, methodMPIIO}
	res.Rows = runGrid(env, microSizesMB, len(methods), func(row, col int) float64 {
		size := int64(microSizesMB[row] * (1 << 20))
		r := miraRig(env, nodes, rpn, storage.LockShared)
		j := ioJob{
			r:       r,
			subfile: true,
			hints: mpiio.Hints{
				CBNodes: 16, CBBufferSize: 16 << 20,
				Strategy: mpiio.AggrBridgeFirst, AlignDomains: true,
			},
			cfg: core.Config{Aggregators: 32, BufferSize: 32 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methods[col])
	})
	res.Notes = append(res.Notes, "paper: both methods similar on Mira (Fig. 9)")
	return res
}

// Fig10 compares TAPIOCA and MPI-IO with the micro-benchmark on Theta
// (expected: TAPIOCA ~2x at the largest size).
func Fig10(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	aggr := pick(env.Full, 48, 12)
	cb := pick(env.Full, 96, 24)
	res := Result{
		ID:     "fig10",
		Title:  fmt.Sprintf("Micro-benchmark on Theta (%d nodes × %d ranks), 48 OSTs, 8 MB stripes", nodes, rpn),
		XLabel: "MB/rank",
		Labels: []string{"TAPIOCA", "MPI-IO"},
	}
	fileOpt := storage.FileOptions{StripeCount: osts, StripeSize: 8 << 20}
	methods := []int{methodTapioca, methodMPIIO}
	res.Rows = runGrid(env, microSizesMB, len(methods), func(row, col int) float64 {
		size := int64(microSizesMB[row] * (1 << 20))
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       r,
			fileOpt: fileOpt,
			hints: mpiio.Hints{
				CBNodes: cb, CBBufferSize: 8 << 20,
				Strategy: mpiio.AggrNodeSpread, AlignDomains: true, CyclicDomains: true,
			},
			cfg: core.Config{Aggregators: aggr, BufferSize: 8 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, size)}
			},
		}
		return mustIO(j, methods[col])
	})
	res.Notes = append(res.Notes, "paper: TAPIOCA ~2x MPI-IO at 3.6 MB/rank (Fig. 10)")
	return res
}

// Table1 reproduces the buffer:stripe ratio study: TAPIOCA micro-benchmark
// writes on Theta with varying stripe sizes per aggregation buffer size;
// the 1:1 ratio must win.
func Table1(env Env) Result {
	nodes := pick(env.Full, 512, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	aggr := pick(env.Full, 48, 12)
	res := Result{
		ID:     "table1",
		Title:  fmt.Sprintf("Buffer:stripe ratio on Theta (%d nodes × %d ranks), TAPIOCA writes", nodes, rpn),
		XLabel: "buffer/stripe",
		Labels: []string{"TAPIOCA"},
	}
	ratios := []struct {
		name string
		num  int64 // buffer parts
		den  int64 // stripe parts
	}{
		{"1:8", 1, 8}, {"1:4", 1, 4}, {"1:2", 1, 2}, {"1:1", 1, 1}, {"2:1", 2, 1}, {"4:1", 4, 1},
	}
	const sizePerRank = 1 << 20
	buffers := []int64{4 << 20, 8 << 20, 16 << 20}
	vals := runCells(env, len(ratios)*len(buffers), func(i int) float64 {
		ratio := ratios[i/len(buffers)]
		buf := buffers[i%len(buffers)]
		stripe := buf * ratio.den / ratio.num
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       r,
			fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: stripe},
			cfg:     core.Config{Aggregators: aggr, BufferSize: buf},
			declared: func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, sizePerRank)}
			},
		}
		return mustIO(j, methodTapioca)
	})
	for ri, ratio := range ratios {
		var sum float64
		for bi := range buffers {
			sum += vals[ri*len(buffers)+bi]
		}
		res.Rows = append(res.Rows, Row{
			X:      float64(ratio.num) / float64(ratio.den),
			Values: []float64{sum / float64(len(buffers))},
		})
	}
	res.Notes = append(res.Notes, "paper Table I: 0.36, 0.64, 0.91, 1.57, 1.08, 1.14 GB/s — 1:1 best")
	return res
}

// haccResult runs the HACC-IO comparison grid (TAPIOCA vs MPI-IO × AoS vs
// SoA) on the given platform builder.
func haccResult(env Env, id, title string, particlesList []int64, run func(layout int, particles int64, method int) float64) Result {
	res := Result{
		ID:     id,
		Title:  title,
		XLabel: "MB/rank",
		Labels: []string{"TAPIOCA-AoS", "MPI-IO-AoS", "TAPIOCA-SoA", "MPI-IO-SoA"},
	}
	cells := []struct {
		layout, method int
	}{
		{workload.AoS, methodTapioca},
		{workload.AoS, methodMPIIO},
		{workload.SoA, methodTapioca},
		{workload.SoA, methodMPIIO},
	}
	xs := make([]float64, len(particlesList))
	for i, particles := range particlesList {
		xs[i] = float64(particles*workload.ParticleBytes) / (1 << 20)
	}
	res.Rows = runGrid(env, xs, len(cells), func(row, col int) float64 {
		return run(cells[col].layout, particlesList[row], cells[col].method)
	})
	return res
}

// haccMira runs one HACC-IO cell on Mira (file per Pset, 16 aggregators and
// 16 MB buffers per Pset, as in Figs. 11–12).
func haccMira(env Env, nodes, rpn int) func(layout int, particles int64, method int) float64 {
	return func(layout int, particles int64, method int) float64 {
		r := miraRig(env, nodes, rpn, storage.LockShared)
		j := ioJob{
			r:       r,
			subfile: true,
			hints: mpiio.Hints{
				CBNodes: 16, CBBufferSize: 16 << 20,
				Strategy: mpiio.AggrBridgeFirst, AlignDomains: true,
			},
			cfg: core.Config{Aggregators: 16, BufferSize: 16 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return workload.HACCDeclared(rank, ranks, particles, layout)
			},
		}
		return mustIO(j, method)
	}
}

// Fig11 is HACC-IO on 1,024 Mira nodes.
func Fig11(env Env) Result {
	nodes := pick(env.Full, 1024, 256)
	rpn := 16
	res := haccResult(env, "fig11",
		fmt.Sprintf("HACC-IO on Mira (%d nodes × %d ranks), file per Pset", nodes, rpn),
		haccParticles, haccMira(env, nodes, rpn))
	res.Notes = append(res.Notes, "paper: TAPIOCA up to ~12x MPI-IO AoS at small sizes; ~90% of the Pset peak")
	return res
}

// Fig12 is HACC-IO on 4,096 Mira nodes.
func Fig12(env Env) Result {
	nodes := pick(env.Full, 4096, 512)
	rpn := 16
	res := haccResult(env, "fig12",
		fmt.Sprintf("HACC-IO on Mira (%d nodes × %d ranks), file per Pset", nodes, rpn),
		haccParticles, haccMira(env, nodes, rpn))
	res.Notes = append(res.Notes, "paper: same shape at 4x scale; peak ~89.6 GB/s on 32 Psets")
	return res
}

// haccTheta runs one HACC-IO cell on Theta (shared file, 48 OSTs, 16 MB
// stripes, aggr aggregators with 16 MB buffers, as in Figs. 13–14).
func haccTheta(env Env, nodes, rpn, aggr, osts int) func(layout int, particles int64, method int) float64 {
	return func(layout int, particles int64, method int) float64 {
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, osts)
		j := ioJob{
			r:       r,
			fileOpt: storage.FileOptions{StripeCount: osts, StripeSize: 16 << 20},
			hints: mpiio.Hints{
				CBNodes: aggr, CBBufferSize: 16 << 20,
				Strategy: mpiio.AggrNodeSpread, AlignDomains: true, CyclicDomains: true,
			},
			cfg: core.Config{Aggregators: aggr, BufferSize: 16 << 20},
			declared: func(rank, ranks int) [][]storage.Seg {
				return workload.HACCDeclared(rank, ranks, particles, layout)
			},
		}
		return mustIO(j, method)
	}
}

// Fig13 is HACC-IO on 1,024 Theta nodes (192 aggregators: 4 per OST).
func Fig13(env Env) Result {
	nodes := pick(env.Full, 1024, 128)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	aggr := pick(env.Full, 192, 48)
	res := haccResult(env, "fig13",
		fmt.Sprintf("HACC-IO on Theta (%d nodes × %d ranks), %d OSTs, 16 MB stripes", nodes, rpn, osts),
		haccParticles, haccTheta(env, nodes, rpn, aggr, osts))
	res.Notes = append(res.Notes, "paper: TAPIOCA ~7x MPI-IO at ~1 MB/rank; gap narrows with size")
	return res
}

// Fig14 is HACC-IO on 2,048 Theta nodes (384 aggregators: 8 per OST).
func Fig14(env Env) Result {
	nodes := pick(env.Full, 2048, 256)
	rpn := 16
	osts := pick(env.Full, 48, 12)
	aggr := pick(env.Full, 384, 96)
	res := haccResult(env, "fig14",
		fmt.Sprintf("HACC-IO on Theta (%d nodes × %d ranks), %d OSTs, 16 MB stripes", nodes, rpn, osts),
		haccParticles, haccTheta(env, nodes, rpn, aggr, osts))
	res.Notes = append(res.Notes, "paper: TAPIOCA ~4x MPI-IO at 3.6 MB/rank AoS")
	return res
}
