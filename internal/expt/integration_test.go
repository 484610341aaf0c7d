package expt

import (
	"testing"

	"tapioca/internal/core"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// End-to-end correctness: both I/O paths must tile the file exactly (no
// gaps, no overlaps) for every workload and platform combination — with
// capture enabled the storage layer records each flushed extent.

func verifyJob(t *testing.T, r *rig, subfile bool, fileOpt storage.FileOptions,
	method int, declared func(rank, ranks int) [][]storage.Seg, groupBytes func(ranks int) int64) {
	t.Helper()
	files := map[int]*storage.File{}
	groupSizes := map[int]int{}
	_, err := mpi.Run(mpi.Config{Ranks: r.ranks(), RanksPerNode: r.rpn, Fabric: r.fab}, func(c *mpi.Comm) {
		group := c
		name := "v"
		gid := 0
		if subfile {
			gid = r.topo.IONodeOf(c.Node())
			group = c.Split(gid, c.Rank())
			name = "v-" + string(rune('a'+gid))
		}
		f := openShared(group, r.sys, name, fileOpt)
		if group.Rank() == 0 {
			f.SetCapture(true)
			files[gid] = f
			groupSizes[gid] = group.Size()
		}
		decl := declared(group.Rank(), group.Size())
		if method == methodTapioca {
			w := core.New(group, r.sys, f, core.Config{Aggregators: 4, BufferSize: 1 << 18})
			w.Init(decl)
			w.WriteAll()
		} else {
			fh := mpiio.Open(group, r.sys, f.Name, fileOpt, mpiio.Hints{CBNodes: 4, CBBufferSize: 1 << 18, DisableSieving: true})
			for _, segs := range decl {
				fh.WriteAtAll(segs)
			}
			fh.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no files captured")
	}
	for gid, f := range files {
		want := groupBytes(groupSizes[gid])
		if err := f.VerifyCoverage(0, want); err != nil {
			t.Errorf("group %d (%s): %v", gid, f.Name, err)
		}
	}
}

func TestEndToEndCoverageMatrix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration")
	}
	const particles = 200
	workloads := []struct {
		name     string
		declared func(rank, ranks int) [][]storage.Seg
		bytes    func(ranks int) int64
	}{
		{
			"ior",
			func(rank, ranks int) [][]storage.Seg {
				return [][]storage.Seg{workload.IORSegs(rank, 100_000)}
			},
			func(ranks int) int64 { return int64(ranks) * 100_000 },
		},
		{
			"hacc-aos",
			func(rank, ranks int) [][]storage.Seg {
				return workload.HACCDeclared(rank, ranks, particles, workload.AoS)
			},
			func(ranks int) int64 { return workload.HACCFileBytes(ranks, particles) },
		},
		{
			"hacc-soa",
			func(rank, ranks int) [][]storage.Seg {
				return workload.HACCDeclared(rank, ranks, particles, workload.SoA)
			},
			func(ranks int) int64 { return workload.HACCFileBytes(ranks, particles) },
		},
	}
	for _, wl := range workloads {
		for _, method := range []int{methodTapioca, methodMPIIO} {
			mname := map[int]string{methodTapioca: "tapioca", methodMPIIO: "mpiio"}[method]
			t.Run(wl.name+"/"+mname+"/mira", func(t *testing.T) {
				r := miraRig(Env{}, 256, 1, storage.LockShared)
				verifyJob(t, r, true, storage.FileOptions{}, method, wl.declared, wl.bytes)
			})
			t.Run(wl.name+"/"+mname+"/theta", func(t *testing.T) {
				r := thetaRig(Env{}, 64, 2, topology.RouteMinimal, 8)
				verifyJob(t, r, false, storage.FileOptions{StripeCount: 8, StripeSize: 1 << 18}, method, wl.declared, wl.bytes)
			})
		}
	}
}

func TestEndToEndMesh2D(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration")
	}
	// A row-major 2-D array checkpoint over an 8x16 process grid: each rank
	// owns one 16x64 tile of 8-byte elements, one strided run per tile row.
	const p, q, tileRows, tileCols, elem = 8, 16, 16, 64, 8
	const rowBytes = q * tileCols * elem
	r := thetaRig(Env{}, 64, 2, topology.RouteMinimal, 8)
	verifyJob(t, r, false, storage.FileOptions{StripeCount: 8, StripeSize: 1 << 18}, methodTapioca,
		func(rank, ranks int) [][]storage.Seg {
			start := int64(rank/q)*tileRows*rowBytes + int64(rank%q)*tileCols*elem
			return [][]storage.Seg{{storage.Strided(start, tileCols*elem, rowBytes, tileRows)}}
		},
		func(ranks int) int64 { return p * q * tileRows * tileCols * elem })
}
