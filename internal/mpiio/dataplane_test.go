package mpiio

// Data-plane round trip through the two-phase baseline: collective writes
// carry payload slices that aggregators land in the backing store per
// (aggregator, round) window, and collective reads fill the callers'
// buffers back — verified byte-for-byte for strided multi-variable
// patterns, plus the closed-handle and payload-size guards.

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

func TestCollectiveDataRoundTrip(t *testing.T) {
	const ranks = 8
	for _, cyclic := range []bool{false, true} {
		name := "contig-domains"
		if cyclic {
			name = "cyclic-domains"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			// Strided AoS-style pattern: 3 variables per rank, interleaved
			// records, so round windows clip runs mid-pattern.
			const n, rec = 64, 24
			decl := make([][][]storage.Seg, ranks)
			for r := 0; r < ranks; r++ {
				base := int64(r) * n * rec
				decl[r] = [][]storage.Seg{
					{storage.Strided(base+0, 8, rec, n)},
					{storage.Strided(base+8, 8, rec, n)},
					{storage.Strided(base+16, 8, rec, n)},
				}
			}
			seed := uint64(7 + rng.Int63n(1000))
			var mu sync.Mutex
			var failures []string
			runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
				var f *storage.File
				if c.Rank() == 0 {
					f = sys.Create("mpiio-rt", storage.FileOptions{StripeCount: 2, StripeSize: 4 << 10})
				}
				f = c.Bcast(0, 8, f).(*storage.File)
				fh := openOn(c, sys, f, Hints{CBNodes: 2, CBBufferSize: 2 << 10, AlignDomains: cyclic, CyclicDomains: cyclic})
				data := workload.FillData(decl[c.Rank()], seed)
				for op, segs := range decl[c.Rank()] {
					if err := fh.WriteAtAllData(segs, data[op]); err != nil {
						mu.Lock()
						failures = append(failures, err.Error())
						mu.Unlock()
					}
				}
				c.Barrier()
				got := make([][]byte, len(data))
				for op, segs := range decl[c.Rank()] {
					got[op] = make([]byte, storage.TotalBytes(segs))
					if err := fh.ReadAtAllData(segs, got[op]); err != nil {
						mu.Lock()
						failures = append(failures, err.Error())
						mu.Unlock()
					}
				}
				if err := workload.VerifyData(decl[c.Rank()], seed, got); err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
				}
				c.Barrier()
			})
			for _, f := range failures {
				t.Error(f)
			}
		})
	}
}

// TestCollectiveStagingRoundTrip drives the exchange phase with the staged
// tree plan: members' pieces for remote-node aggregators become intra-node
// staging deposits and the round exchange books one coalesced fabric
// message per (node, aggregator) group. The round trip must
// stay byte-identical to the flat hints, the staged run must book strictly
// fewer fabric messages, and (payload moving on the plane-sharing
// collective) the landed bytes must verify against the generator.
func TestCollectiveStagingRoundTrip(t *testing.T) {
	const ranks, rpn = 16, 4
	const n, rec = 64, 24
	decl := make([][][]storage.Seg, ranks)
	for r := 0; r < ranks; r++ {
		base := int64(r) * n * rec
		decl[r] = [][]storage.Seg{
			{storage.Strided(base+0, 8, rec, n)},
			{storage.Strided(base+8, 8, rec, n)},
			{storage.Strided(base+16, 8, rec, n)},
		}
	}
	const seed = uint64(131)
	run := func(staged bool) int64 {
		nodes := ranks / rpn
		topo := topology.NewFlat(nodes)
		fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		sys := storage.NewNullFS()
		var mu sync.Mutex
		var failures []string
		_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("mpiio-staged", storage.FileOptions{StripeCount: 2, StripeSize: 4 << 10})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			h := Hints{CBNodes: 2, CBBufferSize: 2 << 10}
			if staged {
				h.Tree = &tree.Shape{Kind: tree.NodeStaged}
			}
			fh := openOn(c, sys, f, h)
			data := workload.FillData(decl[c.Rank()], seed)
			for op, segs := range decl[c.Rank()] {
				if err := fh.WriteAtAllData(segs, data[op]); err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
				}
			}
			c.Barrier()
			got := make([][]byte, len(data))
			for op, segs := range decl[c.Rank()] {
				got[op] = make([]byte, storage.TotalBytes(segs))
				if err := fh.ReadAtAllData(segs, got[op]); err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
				}
			}
			if err := workload.VerifyData(decl[c.Rank()], seed, got); err != nil {
				mu.Lock()
				failures = append(failures, err.Error())
				mu.Unlock()
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			t.Error(f)
		}
		if staged && fab.LocalTransfers() == 0 {
			t.Error("staged hints booked no intra-node deposits")
		}
		return fab.FabricMessages()
	}
	flatMsgs := run(false)
	stagedMsgs := run(true)
	if stagedMsgs >= flatMsgs {
		t.Fatalf("staged hints booked %d fabric messages, flat %d — coalescing saved nothing", stagedMsgs, flatMsgs)
	}
}

func TestClosedFileErrors(t *testing.T) {
	runFlat(t, 2, 1, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("closed", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		fh := openOn(c, sys, f, Hints{})
		fh.Close()
		if err := fh.WriteAtAll([]storage.Seg{storage.Contig(0, 8)}); err == nil || !strings.Contains(err.Error(), "closed file") {
			panic("WriteAtAll on closed file did not error")
		}
		if err := fh.ReadAtAll([]storage.Seg{storage.Contig(0, 8)}); err == nil || !strings.Contains(err.Error(), "closed file") {
			panic("ReadAtAll on closed file did not error")
		}
		c.Barrier()
	})
}

// openOn opens an MPI-IO handle on an already-shared storage file.
func openOn(c *mpi.Comm, sys storage.System, f *storage.File, hints Hints) *File {
	return Open(c, sys, f.Name, f.Opt, hints)
}

// TestCollectiveTreePlanRoundTrip drives the exchange with Hints.Tree: the
// coalesced node messages route through the shape's interior relays in the
// round exchange. The round trip must stay byte-correct, the tree must book
// exactly as many fabric messages as plain staging (every staged node still
// sends once per round — only the hops change), and the degenerate flat
// shape must reproduce the plain schedule identically.
func TestCollectiveTreePlanRoundTrip(t *testing.T) {
	const ranks, rpn = 16, 2
	const n, rec = 64, 24
	decl := make([][][]storage.Seg, ranks)
	for r := 0; r < ranks; r++ {
		base := int64(r) * n * rec
		decl[r] = [][]storage.Seg{
			{storage.Strided(base+0, 8, rec, n)},
			{storage.Strided(base+8, 8, rec, n)},
			{storage.Strided(base+16, 8, rec, n)},
		}
	}
	const seed = uint64(977)
	run := func(hints Hints) int64 {
		nodes := ranks / rpn
		topo := topology.NewFlat(nodes)
		fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		sys := storage.NewNullFS()
		var mu sync.Mutex
		var failures []string
		_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("mpiio-tree", storage.FileOptions{StripeCount: 2, StripeSize: 4 << 10})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			fh := openOn(c, sys, f, hints)
			data := workload.FillData(decl[c.Rank()], seed)
			for op, segs := range decl[c.Rank()] {
				if err := fh.WriteAtAllData(segs, data[op]); err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
				}
			}
			c.Barrier()
			got := make([][]byte, len(data))
			for op, segs := range decl[c.Rank()] {
				got[op] = make([]byte, storage.TotalBytes(segs))
				if err := fh.ReadAtAllData(segs, got[op]); err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
				}
			}
			if err := workload.VerifyData(decl[c.Rank()], seed, got); err != nil {
				mu.Lock()
				failures = append(failures, err.Error())
				mu.Unlock()
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			t.Error(f)
		}
		return fab.FabricMessages()
	}

	base := Hints{CBNodes: 2, CBBufferSize: 2 << 10}
	staged := base
	staged.Tree = &tree.Shape{Kind: tree.NodeStaged}
	treed := base
	treed.Tree = &tree.Shape{Kind: tree.FanIn, K: 2}
	flat := base
	flat.Tree = &tree.Shape{Kind: tree.Flat}

	stagedMsgs := run(staged)
	treeMsgs := run(treed)
	if treeMsgs != stagedMsgs {
		t.Fatalf("tree plan booked %d fabric messages, staged %d — relays must not change the message count",
			treeMsgs, stagedMsgs)
	}
	if flatMsgs, plainMsgs := run(flat), run(base); flatMsgs != plainMsgs {
		t.Fatalf("degenerate flat plan booked %d fabric messages, no plan %d — must be identical",
			flatMsgs, plainMsgs)
	}

}
