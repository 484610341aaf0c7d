package core

import (
	"fmt"
	"testing"

	"tapioca/internal/storage"
	"tapioca/internal/workload"
)

// iorBench marks an IOR run in benchDeclared's layout argument.
const iorBench = -1

// benchDeclared builds the flattened per-rank declarations the planner sees
// for a HACC-IO run (AoS: 9 strided variables per rank, one ascending run;
// SoA: 9 variables in 9 file-wide regions, so each rank's list steps back to
// the first region after the previous rank's) or, with layout iorBench, an
// IOR run (one contiguous block per rank).
func benchDeclared(ranks, layout int) [][]storage.Seg {
	all := make([][]storage.Seg, ranks)
	for r := 0; r < ranks; r++ {
		if layout != iorBench {
			for _, segs := range workload.HACCDeclared(r, ranks, 25000, layout) {
				all[r] = append(all[r], segs...)
			}
		} else {
			all[r] = workload.IORSegs(r, 1<<20)
		}
	}
	return all
}

// BenchmarkPlanBuild measures the declared-I/O planner at paper scale:
// 16,384 ranks (1,024 nodes × 16), 192 aggregators, 16 MB buffers — the
// fig13 full-scale configuration. The flat piece arena and allocation-free
// window accumulation keep this linear in declared segments.
func BenchmarkPlanBuild(b *testing.B) {
	for _, tc := range []struct {
		name   string
		ranks  int
		layout int
	}{
		{"hacc-aos-16k", 16384, workload.AoS},
		{"hacc-soa-16k", 16384, workload.SoA},
		{"ior-16k", 16384, iorBench},
		{"hacc-aos-2k", 2048, workload.AoS},
		{"hacc-soa-2k", 2048, workload.SoA},
	} {
		b.Run(tc.name, func(b *testing.B) {
			all := benchDeclared(tc.ranks, tc.layout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := buildPlan(all, 192, 16<<20, 16<<20, false)
				if len(p.parts) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkBuildPlanInterleaved measures the planner on banded small blocks,
// the tuner's strided-tree-lossy shape: 512 ranks, rank r's j-th 16 KiB
// block in the file's j-th band after the lower ranks' blocks, so every
// partition's members interleave band by band.
func BenchmarkBuildPlanInterleaved(b *testing.B) {
	const ranks, blocks, blk = 512, 16, 16 << 10
	all := make([][]storage.Seg, ranks)
	for r := range all {
		for j := int64(0); j < blocks; j++ {
			all[r] = append(all[r], storage.Contig((j*ranks+int64(r))*blk, blk))
		}
	}
	for _, aggs := range []int{1, 4} {
		b.Run(fmt.Sprintf("aggr-%d", aggs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := buildPlan(all, aggs, 8<<20, 8<<20, false); len(p.parts) != aggs {
					b.Fatal("wrong partition count")
				}
			}
		})
	}
}
