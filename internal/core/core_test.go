package core

import (
	"fmt"
	"strings"
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
)

func runFlat(t *testing.T, ranks, ranksPerNode int, body func(c *mpi.Comm, sys storage.System)) *sim.Engine {
	t.Helper()
	nodes := (ranks + ranksPerNode - 1) / ranksPerNode
	topo := topology.NewFlat(nodes)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewNullFS()
	eng, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: ranksPerNode, Fabric: fab}, func(c *mpi.Comm) {
		body(c, sys)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestBuildPlanContiguous(t *testing.T) {
	const mb = 1 << 20
	// 8 ranks × 1 MB, 2 partitions, 2 MB buffers → 2 rounds per partition.
	all := make([][]storage.Seg, 8)
	for r := range all {
		all[r] = []storage.Seg{storage.Contig(int64(r)*mb, mb)}
	}
	p := buildPlan(all, 2, 2*mb, 0, false)
	if len(p.parts) != 2 {
		t.Fatalf("parts = %d", len(p.parts))
	}
	for i, pp := range p.parts {
		if pp.bytes != 4*mb {
			t.Errorf("partition %d bytes = %d", i, pp.bytes)
		}
		if pp.rounds != 2 {
			t.Errorf("partition %d rounds = %d", i, pp.rounds)
		}
		for r, fl := range pp.flush {
			if fl.bytes != 2*mb {
				t.Errorf("partition %d round %d flush %d bytes", i, r, fl.bytes)
			}
			if len(fl.segs) != 1 {
				t.Errorf("partition %d round %d has %d segs, want 1 contiguous", i, r, len(fl.segs))
			}
		}
	}
	// Ranks 0..3 in partition 0, 4..7 in partition 1.
	for r := 0; r < 8; r++ {
		if p.partOf[r] != r/4 {
			t.Errorf("partOf[%d] = %d", r, p.partOf[r])
		}
	}
}

func TestBuildPlanBuffersExactlyFilled(t *testing.T) {
	// The paper's core claim: every round except the last fills the buffer
	// completely, even with many declared variables.
	const n = 1000
	const vars = 9
	all := make([][]storage.Seg, 4)
	for r := range all {
		// SoA: var v of rank r at v*4n*4 + r*n*4, n 4-byte elements.
		for v := 0; v < vars; v++ {
			off := int64(v)*4*n*4 + int64(r)*n*4
			all[r] = append(all[r], storage.Contig(off, n*4))
		}
	}
	buf := int64(10_000)
	p := buildPlan(all, 1, buf, 0, false)
	pp := p.parts[0]
	for r := 0; r < pp.rounds-1; r++ {
		if pp.flush[r].bytes != buf {
			t.Fatalf("round %d fills %d of %d", r, pp.flush[r].bytes, buf)
		}
	}
	var total int64
	for _, fl := range pp.flush {
		total += fl.bytes
	}
	if total != 4*vars*n*4 {
		t.Fatalf("total flushed %d", total)
	}
}

func TestBuildPlanAoSDenseFlushes(t *testing.T) {
	// AoS: 4 ranks interleave 38-byte records as 9 strided variables. The
	// union is dense, so every flush must be a single contiguous extent —
	// the declared-I/O reorganization the paper sells.
	const parts = 100
	sizes := []int64{4, 4, 4, 4, 4, 4, 4, 8, 2} // 38 bytes
	offs := make([]int64, len(sizes))
	var rec int64
	for i, s := range sizes {
		offs[i] = rec
		rec += s
	}
	const ranks = 4
	all := make([][]storage.Seg, ranks)
	for r := range all {
		base := int64(r) * parts * rec
		for v := range sizes {
			all[r] = append(all[r], storage.Strided(base+offs[v], sizes[v], rec, parts))
		}
	}
	p := buildPlan(all, 2, 1000, 0, false)
	for pi, pp := range p.parts {
		for r, fl := range pp.flush {
			if len(fl.segs) != 1 || fl.segs[0].Count != 1 {
				t.Fatalf("partition %d round %d flush not contiguous: %+v", pi, r, fl.segs)
			}
		}
	}
}

func TestBuildPlanSparseData(t *testing.T) {
	// A genuinely sparse pattern (holes never written): byte counts stay
	// exact and flushes carry the strided extents.
	all := [][]storage.Seg{
		{storage.Strided(0, 4, 100, 50)}, // 200 bytes over a 5 KB span
	}
	p := buildPlan(all, 1, 64, 0, false)
	pp := p.parts[0]
	var total int64
	runsTotal := int64(0)
	for _, fl := range pp.flush {
		total += fl.bytes
		runsTotal += storage.TotalRuns(fl.segs)
	}
	if total != 200 {
		t.Fatalf("total = %d", total)
	}
	if runsTotal != 50 {
		t.Fatalf("runs = %d, want 50", runsTotal)
	}
	if pp.rounds != 4 { // ceil(200/64)
		t.Fatalf("rounds = %d", pp.rounds)
	}
}

func TestBuildPlanPieceConservation(t *testing.T) {
	// Sum of a rank's pieces equals its declared bytes; per-round fill
	// equals flush bytes (asserted inside buildPlan as a panic too).
	all := [][]storage.Seg{
		{storage.Contig(0, 5000)},
		{storage.Contig(5000, 100)},
		{storage.Strided(5100, 10, 20, 30)},
		nil,
	}
	p := buildPlan(all, 2, 1024, 0, false)
	for r, segs := range all {
		var want int64
		for _, s := range segs {
			want += s.Bytes()
		}
		var got int64
		for _, pc := range p.piecesOf(r) {
			got += pc.bytes
		}
		if got != want {
			t.Errorf("rank %d pieces %d bytes, declared %d", r, got, want)
		}
	}
}

func TestWritePipelineCoverage(t *testing.T) {
	const ranks = 8
	const chunk = 1 << 16
	var file *storage.File
	runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
		f := func() *storage.File {
			if c.Rank() == 0 {
				file = sys.Create("out", storage.FileOptions{})
				file.SetCapture(true)
				return file
			}
			return nil
		}()
		got := c.Bcast(0, 8, f)
		w := New(c, sys, got.(*storage.File), Config{Aggregators: 2, BufferSize: 1 << 17})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*chunk, chunk)}})
		w.WriteAll()
		c.Barrier()
	})
	if err := file.VerifyCoverage(0, ranks*chunk); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMultiVariableDeclaredIO(t *testing.T) {
	// Three variables (x, y, z) declared up front, AoS layout: coverage
	// must be exact and flushes should be few (dense reorganization).
	const ranks = 4
	const n = 512
	var file *storage.File
	runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("aos", storage.FileOptions{})
			f.SetCapture(true)
			file = f
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		base := int64(c.Rank()) * n * 12
		declared := [][]storage.Seg{
			{storage.Strided(base+0, 4, 12, n)},
			{storage.Strided(base+4, 4, 12, n)},
			{storage.Strided(base+8, 4, 12, n)},
		}
		w := New(c, sys, f, Config{Aggregators: 2, BufferSize: 4096})
		w.Init(declared)
		w.Write(0)
		w.Write(1)
		w.Write(2)
		c.Barrier()
	})
	if err := file.VerifyCoverage(0, ranks*n*12); err != nil {
		t.Fatal(err)
	}
	// Dense flushes: each write op covers a full buffer (one extent each).
	for _, rec := range file.Writes() {
		if storage.TotalRuns(rec.Segs) != 1 {
			t.Fatalf("non-contiguous flush: %+v", rec.Segs)
		}
	}
}

// TestWriteMisuseErrors: the session-state guards return descriptive errors
// instead of panicking — Write before Init, an out-of-range operation
// index, out-of-declared-order writes, and double Init.
func TestWriteMisuseErrors(t *testing.T) {
	nodes := 2
	topo := topology.NewFlat(nodes)
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	_, err := mpi.Run(mpi.Config{Ranks: 2, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
		f := sys.Lookup("f")
		if c.Rank() == 0 && f == nil {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 1})
		if err := w.Write(0); err == nil || !strings.Contains(err.Error(), "before Init") {
			panic("Write before Init did not error: " + fmt.Sprint(err))
		}
		base := int64(c.Rank()) * 20
		decl := [][]storage.Seg{{storage.Contig(base, 10)}, {storage.Contig(base+10, 10)}}
		if err := w.Init(decl); err != nil {
			panic(err)
		}
		if err := w.Init(decl); err == nil || !strings.Contains(err.Error(), "Init called twice") {
			panic("double Init did not error: " + fmt.Sprint(err))
		}
		if err := w.Write(2); err == nil || !strings.Contains(err.Error(), "out of range") {
			panic("out-of-range Write did not error: " + fmt.Sprint(err))
		}
		if err := w.Write(1); err == nil || !strings.Contains(err.Error(), "out of declared order") {
			panic("out-of-order Write did not error: " + fmt.Sprint(err))
		}
		// The guards must leave the session usable: the declared writes
		// still complete in order.
		if err := w.WriteAll(); err != nil {
			panic(err)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregatorElectionUnique(t *testing.T) {
	const ranks = 16
	aggs := map[int]int{} // partition → count of aggregators
	world := make([]int, 0)
	runFlat(t, ranks, 4, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 4, BufferSize: 4096})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*1024, 1024)}})
		if w.Aggregator() {
			aggs[w.Stats().Partition]++
			world = append(world, c.Rank())
		}
		w.WriteAll()
		c.Barrier()
	})
	if len(aggs) != 4 {
		t.Fatalf("aggregators in %d partitions, want 4", len(aggs))
	}
	for part, n := range aggs {
		if n != 1 {
			t.Fatalf("partition %d has %d aggregators", part, n)
		}
	}
}

func TestElectionConsensus(t *testing.T) {
	// Every member of a partition must agree on the elected world rank.
	const ranks = 12
	perPart := map[int]map[int]bool{}
	runFlat(t, ranks, 3, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 3, BufferSize: 4096})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*100, 100)}})
		st := w.Stats()
		if perPart[st.Partition] == nil {
			perPart[st.Partition] = map[int]bool{}
		}
		perPart[st.Partition][st.AggregatorWorldRank] = true
		w.WriteAll()
		c.Barrier()
	})
	for part, set := range perPart {
		if len(set) != 1 {
			t.Fatalf("partition %d disagrees on aggregator: %v", part, set)
		}
	}
}

// electOnTorus runs an election on a Mira-like torus where partition data
// skews toward high-index nodes, so the topology-aware choice must differ
// from rank order and have lower cost.
func TestTopologyAwareBeatsRankOrderCost(t *testing.T) {
	topo := topology.MiraTorus(128)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewNullFS()
	const ranks = 128
	costs := map[string]float64{} // placement name → elected candidate's cost
	for _, placement := range []cost.Placement{PlacementTopologyAware, PlacementRankOrder, PlacementWorst} {
		var electedCost float64
		_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("f", storage.FileOptions{})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			// Data volume grows with rank: the cheap aggregator sits near
			// the heavy ranks, not at rank 0.
			bytes := int64(c.Rank()+1) * 4096
			w := New(c, sys, f, Config{Aggregators: 1, Placement: placement, BufferSize: 1 << 20})
			w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*4096*130, bytes)}})
			if w.Aggregator() {
				electedCost = w.Stats().ElectionCost
			}
			w.WriteAll()
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		costs[placement.Name()] = electedCost
	}
	if costs[PlacementTopologyAware.Name()] <= 0 {
		t.Fatal("no elected cost recorded")
	}
	if costs[PlacementTopologyAware.Name()] > costs[PlacementWorst.Name()] {
		t.Fatalf("topology-aware cost %v worse than adversarial %v",
			costs[PlacementTopologyAware.Name()], costs[PlacementWorst.Name()])
	}
}

// electedCostOn runs one skewed-data election per placement on the given
// topology and returns the elected aggregator's own candidacy cost and
// world rank.
func electedCostOn(t *testing.T, topo topology.Topology, placement cost.Placement) (float64, int) {
	t.Helper()
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewNullFS()
	ranks := topo.Nodes()
	var electedCost float64
	var electedRank int
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		bytes := int64(c.Rank()+1) * 4096
		w := New(c, sys, f, Config{Aggregators: 1, Placement: placement, BufferSize: 1 << 20})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*4096*int64(ranks+2), bytes)}})
		if w.Aggregator() {
			electedCost = w.Stats().ElectionCost
			electedRank = c.Rank()
		}
		w.WriteAll()
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return electedCost, electedRank
}

// TestTopologyAwareNoWorseThanWorstBothPlatforms asserts the election
// invariant on both of the paper's platforms: the cost-model minimum can
// never exceed the adversarial maximum.
func TestTopologyAwareNoWorseThanWorstBothPlatforms(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo topology.Topology
	}{
		{"mira", topology.MiraTorus(128)},
		{"theta", topology.ThetaDragonfly(64, topology.RouteMinimal)},
	} {
		best, _ := electedCostOn(t, tc.topo, PlacementTopologyAware)
		worst, _ := electedCostOn(t, tc.topo, PlacementWorst)
		if best <= 0 || worst <= 0 {
			t.Fatalf("%s: missing elected costs (best %v, worst %v)", tc.name, best, worst)
		}
		if best > worst {
			t.Fatalf("%s: topology-aware cost %v exceeds adversarial %v", tc.name, best, worst)
		}
	}
}

// TestPlacementDeterministicAcrossRuns re-runs each election and demands the
// same winner — the repository's virtual-time reproducibility contract.
func TestPlacementDeterministicAcrossRuns(t *testing.T) {
	for _, placement := range []cost.Placement{
		PlacementTopologyAware, PlacementRankOrder, PlacementRandom,
		PlacementWorst, PlacementTwoLevel,
	} {
		_, first := electedCostOn(t, topology.MiraTorus(128), placement)
		for i := 0; i < 2; i++ {
			if _, got := electedCostOn(t, topology.MiraTorus(128), placement); got != first {
				t.Fatalf("%s: elected rank %d then %d", placement.Name(), first, got)
			}
		}
	}
}

// TestTwoLevelElectsNodeLeader checks that the intra-node variant only
// elects each node's first partition member.
func TestTwoLevelElectsNodeLeader(t *testing.T) {
	leaders := map[int]bool{}
	runFlat(t, 16, 4, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 2, Placement: PlacementTwoLevel, BufferSize: 4096})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*1024, 1024)}})
		if w.Aggregator() {
			leaders[c.Rank()] = true
		}
		if w.Stats().Placement != "two-level" {
			t.Errorf("stats placement = %q", w.Stats().Placement)
		}
		w.WriteAll()
		c.Barrier()
	})
	for r := range leaders {
		// 4 ranks per node: leaders are partition-local first members, which
		// with 2 partitions of 8 ranks land on ranks ≡ 0 (mod 4).
		if r%4 != 0 {
			t.Fatalf("two-level elected rank %d, not a node leader", r)
		}
	}
	if len(leaders) != 2 {
		t.Fatalf("elected %d aggregators, want 2", len(leaders))
	}
}

func TestRoundsMatchFormula(t *testing.T) {
	runFlat(t, 8, 2, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		const perRank = 10_000
		w := New(c, sys, f, Config{Aggregators: 2, BufferSize: 8192})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*perRank, perRank)}})
		// Partition bytes = 4 ranks × 10 KB = 40 KB; buffer 8 KB → 5 rounds.
		if w.Rounds() != 5 {
			t.Errorf("rounds = %d, want 5", w.Rounds())
		}
		w.WriteAll()
		c.Barrier()
	})
}

func TestEstimatePlanMatchesPlanner(t *testing.T) {
	const mb = 1 << 20
	all := make([][]storage.Seg, 8)
	for r := range all {
		all[r] = []storage.Seg{storage.Contig(int64(r)*mb, mb)}
	}
	est := EstimatePlan(all, Config{Aggregators: 2, BufferSize: 2 * mb}, 0)
	if est.Aggregators != 2 || est.Rounds != 2 || est.TotalBytes != 8*mb {
		t.Fatalf("estimate = %+v", est)
	}
	for pi, pe := range est.Parts {
		if pe.Ranks != 4 || pe.Bytes != 4*mb || pe.Rounds != 2 {
			t.Fatalf("part %d = %+v", pi, pe)
		}
		if pe.FirstRank != pi*4 {
			t.Fatalf("part %d first rank = %d", pi, pe.FirstRank)
		}
		for r, fb := range pe.FlushBytes {
			if fb != 2*mb || pe.FlushRuns[r] != 1 {
				t.Fatalf("part %d round %d: %d bytes in %d runs", pi, r, fb, pe.FlushRuns[r])
			}
		}
		for i, om := range pe.MemberBytes {
			if om != mb {
				t.Fatalf("part %d member %d omega = %d", pi, i, om)
			}
		}
	}
	// Defaults resolve like a live session: zero config on 64 ranks.
	est = EstimatePlan(make([][]storage.Seg, 64), Config{}, 0)
	if est.Aggregators != 4 {
		t.Fatalf("default aggregators = %d, want 64/16", est.Aggregators)
	}
}

func TestReadPipelineCompletes(t *testing.T) {
	const ranks = 8
	const chunk = 1 << 14
	runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		segs := [][]storage.Seg{{storage.Contig(int64(c.Rank())*chunk, chunk)}}
		ww := New(c, sys, f, Config{Aggregators: 2, BufferSize: 1 << 15})
		ww.Init(segs)
		ww.WriteAll()
		c.Barrier()
		wr := New(c, sys, f, Config{Aggregators: 2, BufferSize: 1 << 15})
		wr.Init(segs)
		before := c.Now()
		wr.ReadAll()
		if c.Now() <= before {
			t.Error("read consumed no virtual time")
		}
		c.Barrier()
		if c.Rank() == 0 && f.BytesRead() == 0 {
			t.Error("no storage reads recorded")
		}
	})
}

func TestDoubleBufferFasterThanSingle(t *testing.T) {
	// With storage flush time comparable to aggregation time, pipelining
	// must beat the single-buffer ablation.
	run := func(single bool) int64 {
		nodes := 16
		topo := topology.NewFlat(nodes)
		topo.LinkBW = 2e9
		fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		sys := storage.NewNullFS()
		sys.PerOp = 2 * sim.Millisecond // slow-ish storage
		eng, err := mpi.Run(mpi.Config{Ranks: 16, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("f", storage.FileOptions{})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			const chunk = 4 << 20
			w := New(c, sys, f, Config{Aggregators: 2, BufferSize: 4 << 20, SingleBuffer: single})
			w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*chunk, chunk)}})
			w.WriteAll()
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	double := run(false)
	single := run(true)
	if double >= single {
		t.Fatalf("double buffering (%d) not faster than single (%d)", double, single)
	}
}

func TestStatsAccounting(t *testing.T) {
	const ranks = 4
	const chunk = 10_000
	runFlat(t, ranks, 1, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 1, BufferSize: 16384})
		w.Init([][]storage.Seg{{storage.Contig(int64(c.Rank())*chunk, chunk)}})
		w.WriteAll()
		st := w.Stats()
		if st.BytesPut != chunk {
			t.Errorf("rank %d BytesPut = %d", c.Rank(), st.BytesPut)
		}
		if w.Aggregator() {
			if st.BytesFlushed != ranks*chunk {
				t.Errorf("BytesFlushed = %d", st.BytesFlushed)
			}
			if st.Flushes != 3 { // ceil(40000/16384)
				t.Errorf("Flushes = %d", st.Flushes)
			}
		} else if st.BytesFlushed != 0 {
			t.Errorf("non-aggregator flushed %d", st.BytesFlushed)
		}
		c.Barrier()
	})
}

func TestEmptyRanksParticipate(t *testing.T) {
	// Ranks with no data must still complete collectively.
	runFlat(t, 6, 2, func(c *mpi.Comm, sys storage.System) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 2, BufferSize: 4096})
		var segs []storage.Seg
		if c.Rank()%2 == 0 {
			segs = []storage.Seg{storage.Contig(int64(c.Rank())*1000, 1000)}
		}
		w.Init([][]storage.Seg{segs})
		w.WriteAll()
		c.Barrier()
	})
}

func TestOverlappingDeclarationsPanic(t *testing.T) {
	nodes := 2
	topo := topology.NewFlat(nodes)
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	_, err := mpi.Run(mpi.Config{Ranks: 2, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("f", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		w := New(c, sys, f, Config{Aggregators: 1})
		// Both ranks declare the same extent: overdeclared region.
		w.Init([][]storage.Seg{{storage.Contig(0, 1000)}})
		w.WriteAll()
	})
	if err == nil || !strings.Contains(err.Error(), "overdeclared") {
		t.Fatalf("err = %v", err)
	}
}
