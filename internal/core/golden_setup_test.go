package core

// Golden virtual results for session setup. Each case runs Init on ranks
// that arrive at staggered instants, then one write session, and pins per
// rank the virtual clock right after Init and the setup's Stats (partition,
// elected aggregator, the rank's own candidacy cost as exact float bits,
// rounds, tree levels and fan-in), then the session's end time, fabric
// counters and summed Stats. The cases cover every exported placement, the
// staged and tree shapes, the election-overhead settings, partitions whose
// sizes straddle a power of two, single-member partitions, zero-op ranks
// and a node-interleaving Split, so a rewrite of the setup's collectives
// must reproduce their virtual prices exactly. Regenerate (only for an
// intended change of virtual behaviour) with
//
//	go test ./internal/core -run TestGoldenSetupResults -update

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

const goldenSetupFile = "testdata/golden_setup.txt"

type setupCase struct {
	name  string
	ranks int
	rpn   int
	torus bool
	decl  func(ranks int) [][][]storage.Seg
	cfg   Config
	// key, when set, orders the ranks of a single-color Split the session
	// runs on.
	key func(rank, rpn, ranks int) int
}

func goldenSetupCases() []setupCase {
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
	random := func(ranks int) [][][]storage.Seg {
		return genDeclared(rand.New(rand.NewSource(1357)), ranks, ranks*3)
	}
	placed := func(p cost.Placement) Config { return with(func(c *Config) { c.Placement = p }) }
	return []setupCase{
		{name: "flat-topology-aware", ranks: 32, rpn: 2, decl: iorDecl, cfg: placed(PlacementTopologyAware)},
		{name: "flat-rank-order", ranks: 32, rpn: 2, decl: iorDecl, cfg: placed(PlacementRankOrder)},
		{name: "flat-worst", ranks: 32, rpn: 2, decl: iorDecl, cfg: placed(PlacementWorst)},
		{name: "flat-random", ranks: 32, rpn: 2, decl: iorDecl, cfg: placed(PlacementRandom)},
		{name: "flat-two-level", ranks: 32, rpn: 2, decl: random, cfg: placed(PlacementTwoLevel)},
		{name: "staged", ranks: 64, rpn: 4, decl: random, cfg: with(func(c *Config) { c.Tree = shape("staged") })},
		{name: "fanin2", ranks: 64, rpn: 4, decl: random, cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "torus-group", ranks: 64, rpn: 4, torus: true, decl: random,
			cfg: with(func(c *Config) { c.Tree, c.Aggregators = shape("group"), 3 })},
		{name: "straddle-17-16", ranks: 33, rpn: 3, decl: random, cfg: base},
		{name: "straddle-17-16-fanin2", ranks: 33, rpn: 3, decl: random,
			cfg: with(func(c *Config) { c.Tree = shape("fanin:2") })},
		{name: "single-member", ranks: 16, rpn: 1, decl: iorDecl, cfg: with(func(c *Config) { c.Aggregators = 16 })},
		{name: "single-member-staged", ranks: 16, rpn: 4, decl: iorDecl,
			cfg: with(func(c *Config) { c.Aggregators, c.Tree = 16, shape("staged") })},
		{name: "zero-op-staged", ranks: 64, rpn: 4, decl: zeroOpDecl,
			cfg: with(func(c *Config) { c.Tree = shape("staged") })},
		{name: "zero-op-worst", ranks: 32, rpn: 2, decl: zeroOpDecl, cfg: placed(PlacementWorst)},
		{name: "split-interleave-staged", ranks: 64, rpn: 4, decl: skipDecl, key: interleaveNodes,
			cfg: with(func(c *Config) { c.Tree = shape("staged") })},
	}
}

// setupSkew staggers the ranks' arrival at Init, so every setup collective
// is priced from a latest arrival that some rank alone sets.
func setupSkew(rank int) int64 { return int64(rank*7919%13) * 1_000 }

// runGoldenSetup runs one case and returns its golden lines.
func runGoldenSetup(t *testing.T, sc setupCase) []string {
	t.Helper()
	fab, sys := goldenPlatform(sc.torus)
	decl := sc.decl(sc.ranks)
	var (
		mu       sync.Mutex
		failures []string
		initAt   = make([]int64, sc.ranks)
		stats    = make([]Stats, sc.ranks)
	)
	eng, err := mpi.Run(mpi.Config{Ranks: sc.ranks, RanksPerNode: sc.rpn, Fabric: fab}, func(w *mpi.Comm) {
		c := w
		if sc.key != nil {
			c = w.Split(0, sc.key(w.Rank(), sc.rpn, w.Size()))
		}
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("setup", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		c.Compute(setupSkew(c.Rank()))
		wr := New(c, sys, f, sc.cfg)
		err := wr.Init(decl[c.Rank()])
		at := c.Now()
		st := wr.Stats()
		if err == nil {
			err = wr.WriteAll()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures = append(failures, fmt.Sprintf("rank %d: %v", c.Rank(), err))
		}
		initAt[c.Rank()], stats[c.Rank()] = at, st
		stats[c.Rank()].BytesPut = wr.Stats().BytesPut
		stats[c.Rank()].BytesFlushed = wr.Stats().BytesFlushed
		stats[c.Rank()].Flushes = wr.Stats().Flushes
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	for _, f := range failures {
		t.Errorf("%s: %s", sc.name, f)
	}
	var lines []string
	var put, flushed, flushes int64
	for r, s := range stats {
		lines = append(lines, fmt.Sprintf("r%d init=%d part=%d agg=%d cost=%016x rounds=%d tree=%d/%d",
			r, initAt[r], s.Partition, s.AggregatorWorldRank, math.Float64bits(s.ElectionCost),
			s.Rounds, s.TreeLevels, s.TreeFanIn))
		put += s.BytesPut
		flushed += s.BytesFlushed
		flushes += s.Flushes
	}
	lines = append(lines, fmt.Sprintf("end t=%d transfers=%d messages=%d local=%d bytes=%d put=%d flushed=%d flushes=%d",
		eng.Now(), fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers(), fab.TotalBytes(), put, flushed, flushes))
	for i := range lines {
		lines[i] = sc.name + ": " + lines[i]
	}
	return lines
}

// TestGoldenSetupResults pins Init's virtual prices and election outcomes
// against testdata/golden_setup.txt.
func TestGoldenSetupResults(t *testing.T) {
	var got []string
	for _, sc := range goldenSetupCases() {
		got = append(got, runGoldenSetup(t, sc)...)
	}
	checkGolden(t, goldenSetupFile, got)
}
