package expt

import (
	"fmt"
	"time"

	"tapioca/internal/core"
	"tapioca/internal/mpi"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// DataPlane lists the host-side data-plane experiments. They measure real
// wall-clock throughput of the byte path (gather into window memory,
// coalesced store I/O, verification checksums), so unlike All() their
// numbers vary run to run with the machine — they live in their own
// registry and are excluded from the determinism suites.
func DataPlane() []Spec {
	return []Spec{
		{"dataplane", "Data-plane host throughput: write / read / verify (wall-clock)", DataPlaneFigure},
	}
}

// DataPlaneFigure drives the full aggregation pipeline with real payload
// bytes across aggregation buffer sizes and reports host wall-clock GB/s for
// the write path, the read path, and verification (byte compare + CRC-64).
// Virtual (simulated) time is unaffected by the measurement; this figure is
// about what the host pays to carry the bytes. Phase boundaries are barrier
// release points stamped by rank 0, so each phase's span covers every rank's
// work in it.
func DataPlaneFigure(env Env) Result {
	nodes, rpn, particles := 32, 4, int64(2_000)
	if env.Full {
		nodes, particles = 64, 8_000
	}
	ranks := nodes * rpn
	pattern := workload.HACC(ranks, particles, workload.SoA)
	totalBytes := pattern.TotalBytes()
	bufSizes := []int64{256 << 10, 1 << 20, 4 << 20}
	const seed = 20170907

	res := Result{
		ID:     "dataplane",
		Title:  "Data-plane host throughput: write / read / verify (wall-clock)",
		XLabel: "buffer (MB)",
		Labels: []string{"write path", "read path", "verify"},
		Notes: []string{
			fmt.Sprintf("HACC-IO SoA, %d ranks, %.1f MB of real payload on Theta/Lustre", ranks, float64(totalBytes)/1e6),
			"host wall-clock GB/s, machine-dependent (excluded from determinism suites)",
		},
	}
	for _, bufSize := range bufSizes {
		r := thetaRig(env, nodes, rpn, topology.RouteMinimal, 8)
		cfg := core.Config{Aggregators: 8, BufferSize: bufSize}
		datas := make([][][]byte, ranks)
		gots := make([][][]byte, ranks)
		decls := make([][][]storage.Seg, ranks)
		var tStart, tWritten, tRead time.Time

		_, err := r.run(func(c *mpi.Comm, _ *timer) {
			var f *storage.File
			if c.Rank() == 0 {
				f = r.sys.Create("dataplane", storage.FileOptions{StripeCount: 8, StripeSize: 1 << 20})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			decl := pattern.Declared(c.Rank(), ranks)
			data := workload.FillData(decl, seed)
			decls[c.Rank()], datas[c.Rank()] = decl, data
			c.Barrier()
			if c.Rank() == 0 {
				tStart = time.Now()
			}

			w := core.New(c, r.sys, f, cfg)
			must(w.InitData(decl, data))
			must(w.WriteAll())
			c.Barrier()
			if c.Rank() == 0 {
				tWritten = time.Now()
			}

			got := make([][]byte, len(data))
			for i := range data {
				got[i] = make([]byte, len(data[i]))
			}
			gots[c.Rank()] = got
			rd := core.New(c, r.sys, f, cfg)
			must(rd.InitData(decl, got))
			must(rd.ReadAll())
			c.Barrier()
			if c.Rank() == 0 {
				tRead = time.Now()
			}
		})
		must(err)

		vstart := time.Now()
		for rank := 0; rank < ranks; rank++ {
			must(workload.VerifyData(decls[rank], seed, gots[rank]))
			var wcrc, rcrc uint64
			for i := range datas[rank] {
				wcrc = storage.CRC64(wcrc, datas[rank][i])
				rcrc = storage.CRC64(rcrc, gots[rank][i])
			}
			if wcrc != rcrc {
				must(fmt.Errorf("rank %d: write crc %#x != read crc %#x", rank, wcrc, rcrc))
			}
		}
		verifyDur := time.Since(vstart)

		res.Rows = append(res.Rows, Row{
			X: float64(bufSize) / (1 << 20),
			Values: []float64{
				gbps(totalBytes, tWritten.Sub(tStart).Seconds()),
				gbps(totalBytes, tRead.Sub(tWritten).Seconds()),
				gbps(2*totalBytes, verifyDur.Seconds()),
			},
		})
	}
	return res
}
