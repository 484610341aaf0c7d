package mpiio

// Golden virtual results for the two-phase collective path. Each case runs a
// small write + read-back session on a Theta-like dragonfly with Lustre and
// pins, per collective call, the virtual time the call returns on world rank
// 0 and the fabric's transfer, message and staging-copy counters, plus the
// final engine clock and per-file storage counters. Host-side rewrites of the
// round machinery must reproduce these numbers exactly; regenerate them
// (only for an intended change of virtual behaviour) with
//
//	go test ./internal/mpiio -run TestGoldenVirtualResults -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenFile = "testdata/golden.txt"

// goldenCase is one session: every rank writes its declared variables with one
// collective call each, then reads them back the same way.
type goldenCase struct {
	name  string
	hints Hints
	shape int  // file layout of the declared variables (layoutAoS, ...)
	data  bool // data plane on: real bytes, CRC-checked and read back
	loss  bool // lossy fabric (retransmits)
	// split, when set, gives each rank's (color, key) for a sub-communicator
	// the session runs on, one file per color.
	split func(rank, ranks int) (color, key int)
}

const (
	goldenNodes   = 32
	goldenRPN     = 4
	goldenRecords = 256 // records per rank per variable
	goldenRec     = 24  // AoS record size: three 8-byte variables
	goldenVars    = 3
)

// File layouts of the declared variables.
const (
	// layoutAoS: each rank owns a block of records; a call writes one
	// 8-byte field of every record (sparse rounds).
	layoutAoS = iota
	// layoutSoA: each call writes one contiguous block per rank.
	layoutSoA
	// layoutInterleaved: 8-byte elements interleaved across all ranks, so
	// every round window gathers from every node (the regime trees target).
	layoutInterleaved
	// layoutUneven: one contiguous block per rank and call, of a size that
	// varies by rank, so contended transfers finish in an order-dependent way.
	layoutUneven
)

// goldenDecl is one rank's per-call patterns within a group of size ranks.
func goldenDecl(shape, rank, ranks int) [][]storage.Seg {
	decl := make([][]storage.Seg, goldenVars)
	n := int64(goldenRecords * 8)
	for v := range decl {
		switch shape {
		case layoutSoA:
			decl[v] = []storage.Seg{storage.Contig(int64(v*ranks)*n+int64(rank)*n, n)}
		case layoutInterleaved:
			decl[v] = []storage.Seg{storage.Strided(int64(v*ranks)*n+int64(rank)*8, 8, int64(ranks)*8, goldenRecords)}
		case layoutUneven:
			size := func(r int) int64 { return int64(1+(r*5)%11) * 1000 }
			var off int64
			for r := 0; r < ranks; r++ {
				off += size(r)
			}
			off *= int64(v)
			for r := 0; r < rank; r++ {
				off += size(r)
			}
			decl[v] = []storage.Seg{storage.Contig(off, size(rank))}
		default:
			base := int64(rank) * goldenRecords * goldenRec
			decl[v] = []storage.Seg{storage.Strided(base+int64(v)*8, 8, goldenRec, goldenRecords)}
		}
	}
	return decl
}

// shapeOf parses a golden case's aggregation shape.
func shapeOf(s string) *tree.Shape {
	sh, err := tree.ParseShape(s)
	if err != nil {
		panic(err)
	}
	return &sh
}

func goldenCases() []goldenCase {
	base := Hints{CBNodes: 8, CBBufferSize: 16 << 10}
	with := func(f func(h *Hints)) Hints {
		h := base
		f(&h)
		return h
	}
	return []goldenCase{
		{name: "contig-soa", hints: base, shape: layoutSoA},
		{name: "contig-aos-sieved", hints: base},
		{name: "contig-aos-unsieved", hints: with(func(h *Hints) { h.DisableSieving = true })},
		{name: "aligned", hints: with(func(h *Hints) { h.AlignDomains = true }), shape: layoutSoA},
		{name: "cyclic", hints: with(func(h *Hints) { h.AlignDomains, h.CyclicDomains = true, true })},
		{name: "staged", hints: with(func(h *Hints) { h.Tree = shapeOf("staged") })},
		{name: "staged-interleaved", hints: with(func(h *Hints) { h.Tree = shapeOf("staged") }), shape: layoutInterleaved},
		{name: "tree-fanin2", hints: with(func(h *Hints) { h.Tree = shapeOf("fanin:2") }), shape: layoutInterleaved},
		{name: "tree-chain", hints: with(func(h *Hints) { h.Tree = shapeOf("chain") }), shape: layoutInterleaved},
		{name: "dataplane-crc", hints: with(func(h *Hints) { h.Tree = shapeOf("staged") }), data: true},
		{name: "dataplane-cyclic", hints: with(func(h *Hints) { h.AlignDomains, h.CyclicDomains = true, true }), data: true},
		{name: "net-loss", hints: base, loss: true},
		{name: "net-loss-tree", hints: with(func(h *Hints) { h.Tree = shapeOf("fanin:2") }), shape: layoutInterleaved, loss: true},
		{name: "interleaved-flat", hints: base, shape: layoutInterleaved},
		{name: "file-per-half", hints: with(func(h *Hints) { h.CBNodes = 4 }),
			split: func(rank, ranks int) (int, int) { return rank * 2 / ranks, rank }},
		{name: "uneven", hints: base, shape: layoutUneven},
		{name: "reversed-ranks", hints: base, shape: layoutUneven,
			split: func(rank, ranks int) (int, int) { return 0, ranks - rank }},
		{name: "reversed-ranks-staged", hints: with(func(h *Hints) { h.Tree = shapeOf("staged") }), shape: layoutInterleaved,
			split: func(rank, ranks int) (int, int) { return 0, ranks - rank }},
	}
}

// runGolden runs one case and returns its golden lines.
func runGolden(t *testing.T, gc goldenCase) []string {
	t.Helper()
	topo := topology.ThetaDragonfly(goldenNodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	if gc.loss {
		fab.SetFaults(fault.NewPlan(fault.Config{Seed: 7, NetLossRate: 0.05, RetransmitPenalty: 50_000}))
	}
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
	fopt := storage.FileOptions{StripeCount: 4, StripeSize: 64 << 10}

	var (
		mu       sync.Mutex
		lines    []string
		failures []string
		files    = map[string]*storage.File{}
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ranks := goldenNodes * goldenRPN
	eng, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: goldenRPN, Fabric: fab}, func(w *mpi.Comm) {
		c, name := w, "golden"
		if gc.split != nil {
			color, key := gc.split(w.Rank(), w.Size())
			c, name = w.Split(color, key), fmt.Sprintf("golden-%d", color)
		}
		fh := Open(c, sys, name, fopt, gc.hints)
		if c.Rank() == 0 {
			files[name] = fh.Storage()
		}
		decl := goldenDecl(gc.shape, c.Rank(), c.Size())
		var data [][]byte
		if gc.data {
			data = workload.FillData(decl, 4242)
		}
		call := 0
		record := func(op string, err error) {
			if err != nil {
				fail("%s call %d: %v", op, call, err)
			}
			if w.Rank() == 0 {
				lines = append(lines, fmt.Sprintf("call %d %s t=%d transfers=%d messages=%d local=%d",
					call, op, w.Now(), fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers()))
			}
			call++
		}
		for v, segs := range decl {
			if gc.data {
				record("write", fh.WriteAtAllData(segs, data[v]))
			} else {
				record("write", fh.WriteAtAll(segs))
			}
		}
		got := make([][]byte, len(decl))
		for v, segs := range decl {
			if gc.data {
				got[v] = make([]byte, storage.TotalBytes(segs))
				record("read", fh.ReadAtAllData(segs, got[v]))
			} else {
				record("read", fh.ReadAtAll(segs))
			}
		}
		if gc.data {
			if err := workload.VerifyData(decl, 4242, got); err != nil {
				fail("rank %d read-back: %v", w.Rank(), err)
			}
		}
		fh.Close()
	})
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	for _, f := range failures {
		t.Errorf("%s: %s", gc.name, f)
	}
	lines = append(lines, fmt.Sprintf("end t=%d transfers=%d messages=%d local=%d bytes=%d",
		eng.Now(), fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers(), fab.TotalBytes()))
	for _, name := range sortedKeys(files) {
		f := files[name]
		line := fmt.Sprintf("file %s written=%d read=%d write_ops=%d read_ops=%d",
			name, f.BytesWritten(), f.BytesRead(), f.WriteOps(), f.ReadOps())
		if gc.data {
			lo, hi := int64(0), int64(ranks*goldenRecords*goldenRec)
			crc, err := f.StoreChecksum([]storage.Seg{storage.Contig(lo, hi-lo)})
			if err != nil {
				t.Fatalf("%s: checksum: %v", gc.name, err)
			}
			line += fmt.Sprintf(" crc=%016x", crc)
		}
		lines = append(lines, line)
	}
	for i := range lines {
		lines[i] = gc.name + ": " + lines[i]
	}
	return lines
}

func sortedKeys(m map[string]*storage.File) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenVirtualResults pins the two-phase path's virtual results against
// testdata/golden.txt.
func TestGoldenVirtualResults(t *testing.T) {
	var got []string
	for _, gc := range goldenCases() {
		got = append(got, runGolden(t, gc)...)
	}
	out := []byte(strings.Join(got, "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
