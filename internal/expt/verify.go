package expt

import (
	"fmt"
	"sort"
	"time"

	"tapioca/internal/core"
	"tapioca/internal/mpi"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// VerifyStats reports how a -verify run spent its host wall-clock, so the
// cost of end-to-end verification is visible separately from the pipeline
// it checks.
type VerifyStats struct {
	// PipelineSeconds is the host wall-clock of the write and read sessions
	// themselves (simulation plus the real byte path).
	PipelineSeconds float64
	// VerifySeconds is the host wall-clock of byte comparison and checksum
	// work (VerifyData, write/read CRC parity, store-side CRC parity).
	VerifySeconds float64
}

// VerifyDataPlaneStats is the data-plane round-trip smoke behind
// tapiocabench -verify. It runs one reduced figure-style scenario per
// platform — the HACC-IO SoA pattern on Theta/Lustre and on Mira/GPFS — with
// real payload bytes enabled. Every rank writes deterministic offset-keyed
// bytes through the full aggregation pipeline, a fresh session reads them
// back, and the run fails unless the bytes match and the per-rank write/read
// CRC-64 checksums agree with each other and with a CRC computed over the
// backing store itself. Timings for the two phases are returned alongside
// the error. Observed cells are labelled "verify".
func VerifyDataPlaneStats(env Env) (VerifyStats, error) {
	env.label = "verify"
	type platform struct {
		name string
		rig  *rig
	}
	platforms := []platform{
		{"theta-lustre", thetaRig(env, 32, 4, topology.RouteMinimal, 8)},
		{"mira-gpfs", miraRig(env, 128, 1, storage.LockShared)},
	}
	const seed = 20170905 // the paper's CLUSTER year+month+day, any constant works
	var stats VerifyStats
	for _, pf := range platforms {
		r := pf.rig
		ranks := r.ranks()
		pattern := workload.HACC(ranks, 512, workload.SoA)
		var failure error
		var verifyDur time.Duration
		start := time.Now()
		_, err := r.run(func(c *mpi.Comm, _ *timer) {
			var f *storage.File
			if c.Rank() == 0 {
				f = r.sys.Create("verify", storage.FileOptions{StripeCount: 8, StripeSize: 1 << 20})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			decl := pattern.Declared(c.Rank(), ranks)
			data := workload.FillData(decl, seed)
			cfg := core.Config{Aggregators: 8, BufferSize: 1 << 20}

			w := core.New(c, r.sys, f, cfg)
			err := w.InitData(decl, data)
			if err == nil {
				err = w.WriteAll()
			}
			writeCRC := w.DataChecksum()
			c.Barrier()

			var got [][]byte
			var rd *core.Writer
			if err == nil {
				got = make([][]byte, len(data))
				for i := range data {
					got[i] = make([]byte, len(data[i]))
				}
				rd = core.New(c, r.sys, f, cfg)
				if err = rd.InitData(decl, got); err == nil {
					err = rd.ReadAll()
				}
			}
			// Rank procs execute serially under the scheduler, so summing
			// per-rank spans yields the phase's host wall-clock.
			vstart := time.Now()
			if err == nil {
				err = workload.VerifyData(decl, seed, got)
			}
			if err == nil && rd.DataChecksum() != writeCRC {
				err = fmt.Errorf("read checksum %#x != write checksum %#x", rd.DataChecksum(), writeCRC)
			}
			if err == nil {
				var runs []storage.Seg
				for _, segs := range decl {
					storage.Enumerate(segs, 1<<20, func(off, length int64) {
						runs = append(runs, storage.Contig(off, length))
					})
				}
				sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
				if crc, cerr := f.StoreChecksum(runs); cerr != nil {
					err = cerr
				} else if crc != writeCRC {
					err = fmt.Errorf("store checksum %#x != write checksum %#x", crc, writeCRC)
				}
			}
			verifyDur += time.Since(vstart)
			if err != nil && failure == nil {
				failure = fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			c.Barrier()
		})
		total := time.Since(start)
		stats.VerifySeconds += verifyDur.Seconds()
		stats.PipelineSeconds += (total - verifyDur).Seconds()
		if err == nil {
			err = failure
		}
		if err != nil {
			return stats, fmt.Errorf("data-plane verify on %s: %w", pf.name, err)
		}
	}
	// Host wall-clock (nondeterministic) — "host." prefix keeps it out of
	// any determinism comparison, matching the pipeline's convention.
	reg := env.Observer.Metrics(env.label)
	reg.SetMax("host.verify_pipeline_seconds", stats.PipelineSeconds)
	reg.SetMax("host.verify_verify_seconds", stats.VerifySeconds)
	return stats, nil
}
