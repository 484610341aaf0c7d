package core

// Golden virtual results for the TAPIOCA write pipeline. Each case runs one
// write session on a small Theta-like dragonfly with Lustre (or a small
// BG/Q torus with GPFS, whose Psets give the group shapes something to
// cluster) and pins the
// engine's end time, the fabric's transfer, message and staging-copy
// counters, the ranks' summed Stats (put bytes, tree shape and per-depth
// tree messages, failovers), a digest of the session's metrics snapshot and,
// with the data plane on, the landed file's CRC. The cases cover every way a
// write session reaches the aggregator — flat, node-staged, the tree shapes,
// failover under staged and tree shapes, a lossy fabric — so a rewrite of the
// put machinery must reproduce these numbers exactly. Every case also runs
// without a flight recorder and must print the same lines, metrics aside.
// Regenerate (only for an intended change of virtual behaviour) with
//
//	go test ./internal/core -run TestGoldenWriteResults -update

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenFile = "testdata/golden.txt"

const (
	goldenNodes = 16
	goldenBlock = 512 // interleaved block size
	goldenReps  = 24  // interleaved blocks per rank
)

// Declared patterns.
const (
	// patInterleaved: 512-byte blocks interleaved across all ranks, so every
	// round gathers a contiguous piece from every member and staging and
	// trees engage on every round.
	patInterleaved = iota
	// patRandom: genDeclared's random strided pattern, whose rounds mix
	// contiguous and non-contiguous node groups (per-round fallback).
	patRandom
)

type goldenCase struct {
	name    string
	rpn     int
	pattern int
	cfg     Config
	data    bool // data plane on: real bytes and a CRC of the landed file
	loss    bool // lossy fabric (retransmits)
	// torus runs on a 16-node BG/Q torus with 4-node Psets and GPFS, so
	// the group and chain shapes find several locality groups.
	torus bool
	// key, when set, orders the ranks of a single-color Split the session
	// runs on.
	key func(rank, rpn, ranks int) int
}

func goldenDeclared(pattern, ranks int) [][][]storage.Seg {
	if pattern == patRandom {
		return genDeclared(rand.New(rand.NewSource(2468)), ranks, ranks*3)
	}
	decl := make([][][]storage.Seg, ranks)
	for r := range decl {
		decl[r] = [][]storage.Seg{{storage.Strided(int64(r)*goldenBlock, goldenBlock, int64(ranks)*goldenBlock, goldenReps)}}
	}
	return decl
}

func goldenCases() []goldenCase {
	shape := func(s string) *tree.Shape {
		sh, err := tree.ParseShape(s)
		if err != nil {
			panic(err)
		}
		return &sh
	}
	base := Config{Aggregators: 2, BufferSize: 8 << 10}
	with := func(f func(c *Config)) Config {
		c := base
		f(&c)
		return c
	}
	death := func(c *Config) {
		c.Faults = fault.NewPlan(fault.Config{Seed: 17, AggrDeathRate: 1})
		c.Recovery = true
	}
	// pairs interleaves two nodes' ranks pairwise (node 0's first two, node
	// 1's first two, node 0's next two, ...), so a node's ranks form two
	// non-adjacent runs: trees disable, staging still keys on node identity.
	pairs := func(rank, rpn, ranks int) int {
		node, slot := rank/rpn, rank%rpn
		return (node/2)*2*rpn + (slot/2)*4 + (node%2)*2 + slot%2
	}
	return []goldenCase{
		{name: "flat", rpn: 4, cfg: base},
		{name: "flat-random", rpn: 4, pattern: patRandom, cfg: base},
		{name: "staging-ppn4", rpn: 4, cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "staging-ppn4-random", rpn: 4, pattern: patRandom, cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "staging-ppn1", rpn: 1, cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "tree-staged", rpn: 4, cfg: with(func(c *Config) { c.Tree = shape("staged") })},
		{name: "tree-fanin2", rpn: 4, cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "tree-fanin2-random", rpn: 4, pattern: patRandom, cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "tree-fanin2-single", rpn: 4, cfg: with(func(c *Config) { c.Tree, c.SingleBuffer = shape("fanin:2"), true })},
		{name: "tree-group", rpn: 4, cfg: with(func(c *Config) { c.Tree = shape("group") })},
		{name: "tree-chain", rpn: 4, cfg: with(func(c *Config) { c.Tree = shape("chain") })},
		{name: "torus-group", rpn: 4, torus: true, cfg: with(func(c *Config) { c.Tree = shape("group") })},
		{name: "torus-chain", rpn: 4, torus: true, cfg: with(func(c *Config) { c.Tree = shape("chain") })},
		{name: "torus-staging", rpn: 4, torus: true, cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "tree-flat-staging", rpn: 4, cfg: with(func(c *Config) { c.Tree, c.IntraNodeStaging = shape("flat"), true })},
		{name: "split-pairs-staging", rpn: 4, pattern: patRandom, key: pairs,
			cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "split-pairs-fanin2", rpn: 4, pattern: patRandom, key: pairs,
			cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "failover-staged", rpn: 4, data: true,
			cfg: with(func(c *Config) { c.Tree = shape("staged"); death(c) })},
		{name: "failover-fanin2", rpn: 4, data: true,
			cfg: with(func(c *Config) { c.Tree = shape("fanin:2"); death(c) })},
		{name: "net-loss-staged", rpn: 4, loss: true, cfg: with(func(c *Config) { c.IntraNodeStaging = true })},
		{name: "net-loss-fanin2", rpn: 4, loss: true, cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "dataplane-flat", rpn: 4, pattern: patRandom, data: true, cfg: base},
		{name: "dataplane-fanin2", rpn: 4, pattern: patRandom, data: true, cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
	}
}

// metricsDigest is a CRC-64 over the snapshot's deterministic metrics, in
// name order; host wall-time histograms ("host." prefix) are skipped.
func metricsDigest(s obs.Snapshot) (digest uint64, n int) {
	var b strings.Builder
	for _, name := range s.Names() {
		if strings.HasPrefix(name, "host.") {
			continue
		}
		n++
		if v, ok := s.Counters[name]; ok {
			fmt.Fprintf(&b, "c %s %d\n", name, v)
		} else if v, ok := s.Gauges[name]; ok {
			fmt.Fprintf(&b, "g %s %v\n", name, v)
		} else {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "h %s %d %v %v %v\n", name, h.Count, h.Sum, h.Min, h.Max)
		}
	}
	return storage.CRC64(0, []byte(b.String())), n
}

// goldenPlatform builds a golden case's fabric and storage: a 16-node BG/Q
// torus with 4-node Psets and GPFS, or a 16-node Theta dragonfly with Lustre.
func goldenPlatform(torus bool) (*netsim.Fabric, storage.System) {
	if torus {
		t := topology.NewTorus5D([5]int{2, 2, 2, 2, 1})
		t.PsetSize = 4
		fab := netsim.New(t, netsim.Config{Contention: netsim.ContentionLinks})
		return fab, storage.NewGPFS(t, fab, storage.GPFSConfig{})
	}
	topo := topology.ThetaDragonfly(goldenNodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	return fab, storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
}

// landedCRC is the CRC of the file's backing store over every declared byte,
// in file-offset order.
func landedCRC(t *testing.T, name string, file *storage.File, decl [][][]storage.Seg) uint64 {
	t.Helper()
	var runs []storage.Seg
	for _, d := range decl {
		for _, segs := range d {
			storage.Enumerate(segs, 1<<20, func(off, length int64) {
				runs = append(runs, storage.Contig(off, length))
			})
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
	crc, err := file.StoreChecksum(runs)
	if err != nil {
		t.Fatalf("%s: checksum: %v", name, err)
	}
	return crc
}

// runGoldenWrite runs one case and returns its golden lines. With record set
// the session runs under a flight recorder and a metrics line is appended.
func runGoldenWrite(t *testing.T, gc goldenCase, record bool) []string {
	t.Helper()
	fab, sys := goldenPlatform(gc.torus)
	cfg := gc.cfg
	if gc.loss {
		plan := fault.NewPlan(fault.Config{Seed: 7, NetLossRate: 0.05, RetransmitPenalty: 50_000})
		fab.SetFaults(plan)
		cfg.Faults = plan
	}
	ranks := goldenNodes * gc.rpn
	decl := goldenDeclared(gc.pattern, ranks)
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(false)
	}

	var (
		mu       sync.Mutex
		failures []string
		file     *storage.File
		st       Stats
		levels   []int64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	eng, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: gc.rpn, Fabric: fab, Recorder: rec}, func(w *mpi.Comm) {
		c := w
		if gc.key != nil {
			c = w.Split(0, gc.key(w.Rank(), gc.rpn, w.Size()))
		}
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("golden", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		mine := decl[c.Rank()]
		wr := New(c, sys, f, cfg)
		var err error
		if gc.data {
			err = wr.InitData(mine, workload.FillData(mine, 4242))
		} else {
			err = wr.Init(mine)
		}
		if err == nil {
			err = wr.WriteAll()
		}
		if err != nil {
			fail("rank %d: %v", w.Rank(), err)
		}
		s := wr.Stats()
		mu.Lock()
		defer mu.Unlock()
		if c.Rank() == 0 {
			file = f
		}
		st.BytesPut += s.BytesPut
		st.BytesFlushed += s.BytesFlushed
		st.Flushes += s.Flushes
		st.Failovers += s.Failovers
		st.ReplayedRounds += s.ReplayedRounds
		st.LostBytes += s.LostBytes
		st.TreeLevels = max(st.TreeLevels, s.TreeLevels)
		st.TreeFanIn = max(st.TreeFanIn, s.TreeFanIn)
		for d, n := range s.TreeLevelMessages {
			for len(levels) <= d {
				levels = append(levels, 0)
			}
			levels[d] += n
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	for _, f := range failures {
		t.Errorf("%s: %s", gc.name, f)
	}
	lines := []string{
		fmt.Sprintf("end t=%d transfers=%d messages=%d local=%d bytes=%d",
			eng.Now(), fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers(), fab.TotalBytes()),
		fmt.Sprintf("stats put=%d flushed=%d flushes=%d failovers=%d replayed=%d lost=%d tree_levels=%d tree_fanin=%d tree_messages=%v",
			st.BytesPut, st.BytesFlushed, st.Flushes, st.Failovers, st.ReplayedRounds, st.LostBytes,
			st.TreeLevels, st.TreeFanIn, levels),
	}
	fl := fmt.Sprintf("file written=%d write_ops=%d", file.BytesWritten(), file.WriteOps())
	if gc.data {
		fl += fmt.Sprintf(" crc=%016x", landedCRC(t, gc.name, file, decl))
	}
	lines = append(lines, fl)
	if record {
		d, n := metricsDigest(rec.Registry().Snapshot())
		lines = append(lines, fmt.Sprintf("metrics n=%d digest=%016x", n, d))
	}
	for i := range lines {
		lines[i] = gc.name + ": " + lines[i]
	}
	return lines
}

// TestGoldenWriteResults pins the write pipeline's virtual results against
// testdata/golden.txt.
func TestGoldenWriteResults(t *testing.T) {
	var got []string
	for _, gc := range goldenCases() {
		lines := runGoldenWrite(t, gc, true)
		plain := runGoldenWrite(t, gc, false)
		if strings.Join(plain, "\n") != strings.Join(lines[:len(lines)-1], "\n") {
			t.Errorf("%s: the recorder changed the session:\n with: %v\n without: %v", gc.name, lines, plain)
		}
		got = append(got, lines...)
	}
	checkGolden(t, goldenFile, got)
}

// checkGolden compares got with the golden file line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	out := []byte(strings.Join(got, "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
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
