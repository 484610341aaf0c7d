package mpiio

import (
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
)

// rig bundles a small flat-topology world with a NullFS.
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

// layouts are the two file-domain layouts buildSchedule takes: block
// domains, and stripe-cyclic domains over 1 MiB stripes.
var layouts = []struct {
	name    string
	alignTo int64
	cyclic  bool
}{{"block", 0, false}, {"cyclic", 1 << 20, true}}

func TestBuildScheduleContig(t *testing.T) {
	// 4 ranks × 1 MB contiguous, 2 aggregators, 1 MB buffers → 2 rounds:
	// block domains of 2 MB, or 4 stripes dealt out 2 per aggregator.
	const mb = 1 << 20
	allSegs := make([][]storage.Seg, 4)
	for r := range allSegs {
		allSegs[r] = []storage.Seg{storage.Contig(int64(r)*mb, mb)}
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			s := buildSchedule(allSegs, 2, mb, l.alignTo, l.cyclic)
			if s.lo != 0 || s.hi != 4*mb {
				t.Fatalf("range [%d,%d)", s.lo, s.hi)
			}
			if s.rounds != 2 {
				t.Fatalf("rounds = %d", s.rounds)
			}
			// Every (agg, round) gets exactly one rank's MB.
			for a := 0; a < 2; a++ {
				for r := 0; r < 2; r++ {
					if s.aggRounds[a][r].bytes != mb {
						t.Errorf("agg %d round %d bytes = %d", a, r, s.aggRounds[a][r].bytes)
					}
				}
			}
			// Each rank sends exactly its MB, to one (agg, round).
			for r, pieces := range s.sendPieces {
				var total int64
				for _, p := range pieces {
					total += p.bytes
				}
				if total != mb {
					t.Errorf("rank %d sends %d bytes", r, total)
				}
			}
		})
	}
}

func TestBuildScheduleSparseStrided(t *testing.T) {
	// One rank writes 4-byte runs every 38 bytes — an AoS variable. The
	// schedule must keep byte counts exact.
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			s := buildSchedule([][]storage.Seg{
				{storage.Strided(0, 4, 38, 1000)},
			}, 2, 1<<20, l.alignTo, l.cyclic)
			var total int64
			for a := range s.aggRounds {
				for r := range s.aggRounds[a] {
					total += s.aggRounds[a][r].bytes
				}
			}
			if total != 4000 {
				t.Fatalf("scheduled bytes = %d, want 4000", total)
			}
		})
	}
}

func TestBuildScheduleDomainAlignment(t *testing.T) {
	// 3 MB over 2 aggregators: unaligned domains would split at 1.5 MB, so
	// aggregator 0's last window must end on the 1 MB unit before the file
	// end.
	const mb = 1 << 20
	allSegs := [][]storage.Seg{{storage.Contig(0, 3*mb)}}
	s := buildSchedule(allSegs, 2, mb, mb, false)
	whi := s.aggRounds[0][s.rounds-1].whi
	if whi%mb != 0 || whi >= s.hi {
		t.Fatalf("aggregator 0 ends at %d, want a unit boundary below %d", whi, s.hi)
	}
}

func TestBuildScheduleEmpty(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			s := buildSchedule(make([][]storage.Seg, 4), 2, 1<<20, l.alignTo, l.cyclic)
			if s.rounds != 0 || s.hi != s.lo {
				t.Fatalf("empty schedule has rounds=%d range=[%d,%d)", s.rounds, s.lo, s.hi)
			}
		})
	}
}

func TestChooseAggregatorsNodeSpread(t *testing.T) {
	runFlat(t, 8, 2, func(c *mpi.Comm, sys storage.System) {
		aggrs := chooseAggregators(c, Hints{CBNodes: 4, Strategy: AggrNodeSpread}, sys).ranks
		want := []int{0, 2, 4, 6} // first rank of each node
		for i, a := range aggrs {
			if a != want[i] {
				t.Errorf("aggrs = %v, want %v", aggrs, want)
				break
			}
		}
	})
}

func TestChooseAggregatorsRankOrder(t *testing.T) {
	runFlat(t, 8, 2, func(c *mpi.Comm, sys storage.System) {
		aggrs := chooseAggregators(c, Hints{CBNodes: 4, Strategy: AggrRankOrder}, sys).ranks
		for i, a := range aggrs {
			if a != i {
				t.Errorf("aggrs = %v, want 0..3", aggrs)
				break
			}
		}
	})
}

func TestChooseAggregatorsBridgeFirstOnTorus(t *testing.T) {
	topo := topology.MiraTorus(256) // 2 Psets, bridges at 0,64,128,192
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	_, err := mpi.Run(mpi.Config{Ranks: 512, RanksPerNode: 2, Fabric: fab}, func(c *mpi.Comm) {
		aggrs := chooseAggregators(c, Hints{CBNodes: 4, Strategy: AggrBridgeFirst}, sys).ranks
		tor := topo
		for _, a := range aggrs {
			node := c.NodeOfRank(a)
			br := tor.BridgeNodes(tor.PsetOf(node))
			if node != br[0] && node != br[1] {
				t.Errorf("aggregator rank %d on node %d is not a bridge node", a, node)
			}
		}
		_ = sys
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChooseAggregatorsTopologyAware(t *testing.T) {
	// The cost-model strategies elect one aggregator per contiguous rank
	// block; the set must be well-formed, sorted and deterministic.
	topo := topology.MiraTorus(128)
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	var first []int
	for trial := 0; trial < 2; trial++ {
		var got []int
		_, err := mpi.Run(mpi.Config{Ranks: 256, RanksPerNode: 2, Fabric: fab}, func(c *mpi.Comm) {
			aggrs := chooseAggregators(c, Hints{CBNodes: 8, Strategy: AggrTopologyAware}, sys).ranks
			if c.Rank() == 0 {
				got = aggrs
			} else if len(aggrs) != 8 {
				t.Errorf("rank %d sees %d aggregators", c.Rank(), len(aggrs))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 8 {
			t.Fatalf("aggregator set = %v", got)
		}
		for i, a := range got {
			lo, hi := i*256/8, (i+1)*256/8
			if a < lo || a >= hi {
				t.Fatalf("aggregator %d = rank %d outside its block [%d,%d)", i, a, lo, hi)
			}
		}
		if trial == 0 {
			first = got
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("election not deterministic: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestTopologyAwareStrategyParity(t *testing.T) {
	// AggrTopologyAware and AggrTwoLevel must be drop-in strategies:
	// identical file coverage and byte totals to the classic heuristics on
	// the same workload, with only the aggregator identities changing.
	const ranks = 16
	const chunk = 1 << 14
	for _, strategy := range []cost.Placement{
		AggrNodeSpread, AggrRankOrder, AggrTopologyAware, AggrTwoLevel,
	} {
		var file *storage.File
		runFlat(t, ranks, 4, func(c *mpi.Comm, sys storage.System) {
			fh := Open(c, sys, "p-"+strategy.Name(), storage.FileOptions{}, Hints{
				CBNodes: 4, CBBufferSize: 1 << 15, Strategy: strategy,
			})
			if c.Rank() == 0 {
				fh.Storage().SetCapture(true)
				file = fh.Storage()
			}
			c.Barrier()
			fh.WriteAtAll([]storage.Seg{storage.Contig(int64(c.Rank())*chunk, chunk)})
			fh.Close()
		})
		if err := file.VerifyCoverage(0, ranks*chunk); err != nil {
			t.Fatalf("%s: %v", strategy.Name(), err)
		}
		if file.BytesWritten() != ranks*chunk {
			t.Fatalf("%s: wrote %d bytes, want %d", strategy.Name(), file.BytesWritten(), ranks*chunk)
		}
	}
}

// elapsedWithStrategy runs one Theta collective write under the strategy and
// returns the virtual elapsed time.
func elapsedWithStrategy(t *testing.T, strategy cost.Placement) int64 {
	t.Helper()
	topo := topology.ThetaDragonfly(64, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewNullFS()
	eng, err := mpi.Run(mpi.Config{Ranks: 256, RanksPerNode: 4, Fabric: fab}, func(c *mpi.Comm) {
		fh := Open(c, sys, "w", storage.FileOptions{}, Hints{
			CBNodes: 16, CBBufferSize: 1 << 20, Strategy: strategy,
		})
		fh.WriteAtAll([]storage.Seg{storage.Contig(int64(c.Rank())<<18, 1<<18)})
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Now()
}

func TestTopologyAwareBeatsRankOrderElapsed(t *testing.T) {
	// The acceptance bar for the shared cost engine: the topology-aware
	// baseline finishes a collective write faster than rank-order stacking
	// (which funnels all 16 aggregators onto the first 4 nodes).
	stacked := elapsedWithStrategy(t, AggrRankOrder)
	aware := elapsedWithStrategy(t, AggrTopologyAware)
	if aware >= stacked {
		t.Fatalf("topology-aware elapsed %d >= rank-order %d", aware, stacked)
	}
	twoLevel := elapsedWithStrategy(t, AggrTwoLevel)
	if twoLevel >= stacked {
		t.Fatalf("two-level elapsed %d >= rank-order %d", twoLevel, stacked)
	}
}

func TestWriteAtAllCoversFile(t *testing.T) {
	const ranks = 8
	const chunk = 1 << 16
	var file *storage.File
	runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "out", storage.FileOptions{}, Hints{CBNodes: 2, CBBufferSize: 1 << 17})
		if c.Rank() == 0 {
			fh.Storage().SetCapture(true)
			file = fh.Storage()
		}
		c.Barrier()
		off := int64(c.Rank()) * chunk
		fh.WriteAtAll([]storage.Seg{storage.Contig(off, chunk)})
		fh.Close()
	})
	if err := file.VerifyCoverage(0, ranks*chunk); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtAllStridedCoverage(t *testing.T) {
	// Interleaved AoS-style pattern: rank r writes runs of 8 bytes at
	// stride 32 starting at r*8, 4 ranks → full tiling.
	const ranks = 4
	var file *storage.File
	runFlat(t, ranks, 1, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "aos", storage.FileOptions{}, Hints{CBNodes: 2, CBBufferSize: 1 << 10, DisableSieving: true})
		if c.Rank() == 0 {
			fh.Storage().SetCapture(true)
			file = fh.Storage()
		}
		c.Barrier()
		fh.WriteAtAll([]storage.Seg{storage.Strided(int64(c.Rank())*8, 8, 32, 64)})
		fh.Close()
	})
	if err := file.VerifyCoverage(0, 32*64); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtAllOnlyAggregatorsTouchStorage(t *testing.T) {
	var file *storage.File
	aggNodes := map[int]bool{}
	runFlat(t, 8, 2, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "o", storage.FileOptions{}, Hints{CBNodes: 2})
		if c.Rank() == 0 {
			fh.Storage().SetCapture(true)
			file = fh.Storage()
			for _, a := range fh.Aggregators() {
				aggNodes[c.NodeOfRank(a)] = true
			}
		}
		c.Barrier()
		fh.WriteAtAll([]storage.Seg{storage.Contig(int64(c.Rank())*1024, 1024)})
		fh.Close()
	})
	for _, w := range file.Writes() {
		if !aggNodes[w.Node] {
			t.Fatalf("write issued from non-aggregator node %d", w.Node)
		}
	}
}

func TestWriteAtAllUnevenSizes(t *testing.T) {
	// Ranks write different amounts; coverage must still be exact.
	const ranks = 6
	sizes := []int64{100, 0, 5000, 1, 999, 3000}
	var offs [ranks]int64
	var total int64
	for i, s := range sizes {
		offs[i] = total
		total += s
	}
	var file *storage.File
	runFlat(t, ranks, 3, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "u", storage.FileOptions{}, Hints{CBNodes: 3, CBBufferSize: 2048})
		if c.Rank() == 0 {
			fh.Storage().SetCapture(true)
			file = fh.Storage()
		}
		c.Barrier()
		var segs []storage.Seg
		if sizes[c.Rank()] > 0 {
			segs = []storage.Seg{storage.Contig(offs[c.Rank()], sizes[c.Rank()])}
		}
		fh.WriteAtAll(segs)
		fh.Close()
	})
	if err := file.VerifyCoverage(0, total); err != nil {
		t.Fatal(err)
	}
	if file.BytesWritten() != total {
		t.Fatalf("bytes = %d, want %d", file.BytesWritten(), total)
	}
}

// TestParksScaleWithAggregatorRounds pins who waits in a two-phase call:
// a non-aggregator parks a fixed number of times per collective call (the
// plan exchange and the closing barrier) however many rounds the call runs,
// so the engine's park count grows only with aggregators × rounds — one
// sub-communicator sync per round, plus the final round barrier on writes.
func TestParksScaleWithAggregatorRounds(t *testing.T) {
	const ranks, rpn, nAggr = 16, 4, 4
	const chunk = 64 << 10 // 1 MiB file over 4 aggregators: 256 KiB domains
	parks := func(bufSize int64) int64 {
		eng := runFlat(t, ranks, rpn, func(c *mpi.Comm, sys storage.System) {
			fh := Open(c, sys, "parks", storage.FileOptions{}, Hints{CBNodes: nAggr, CBBufferSize: bufSize})
			segs := []storage.Seg{storage.Contig(int64(c.Rank())*chunk, chunk)}
			fh.WriteAtAll(segs)
			fh.ReadAtAll(segs)
			fh.Close()
		})
		return eng.Parks()
	}
	// Every collective parks all members but the last to arrive: the world
	// collectives — Open's two Bcasts, each call's plan and closing barrier,
	// Close's barrier — cost ranks-1 parks whatever the round count.
	world := int64(2+2+2+1) * (ranks - 1)
	for _, rounds := range []int64{1, 4, 16} {
		got := parks(256 << 10 / rounds)
		want := world + (nAggr-1)*(rounds+1) + (nAggr-1)*rounds
		if got != want {
			t.Errorf("%d rounds: %d parks, want %d (%d world + %d aggregator)", rounds, got, want, world, want-world)
		}
	}
}

func TestReadAtAllCompletes(t *testing.T) {
	runFlat(t, 8, 2, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "r", storage.FileOptions{}, Hints{CBNodes: 2})
		off := int64(c.Rank()) * 4096
		fh.WriteAtAll([]storage.Seg{storage.Contig(off, 4096)})
		before := c.Now()
		fh.ReadAtAll([]storage.Seg{storage.Contig(off, 4096)})
		if c.Now() <= before {
			t.Error("read consumed no time")
		}
		if fh.Storage().BytesRead() == 0 && c.Rank() == 0 {
			t.Error("no bytes read from storage")
		}
		fh.Close()
	})
}

func TestIndependentWriteSieving(t *testing.T) {
	runFlat(t, 1, 1, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "s", storage.FileOptions{}, Hints{})
		fh.WriteAt([]storage.Seg{storage.Strided(0, 4, 38, 100)})
		// Sieving reads the span before writing.
		if fh.Storage().BytesRead() == 0 {
			t.Error("sieving did not read the span")
		}
		fh.WriteAt(nil) // no-op
		fh.Close()
	})
}

func TestIndependentWriteNoSieveWhenContig(t *testing.T) {
	runFlat(t, 1, 1, func(c *mpi.Comm, sys storage.System) {
		fh := Open(c, sys, "c", storage.FileOptions{}, Hints{})
		fh.WriteAt([]storage.Seg{storage.Contig(0, 4096)})
		if fh.Storage().BytesRead() != 0 {
			t.Error("contiguous write should not sieve")
		}
		fh.Close()
	})
}

func TestSparseCollectiveUsesSieving(t *testing.T) {
	// AoS-style sparse round with sieving: physical reads happen; with
	// sieving disabled they don't.
	for _, disable := range []bool{false, true} {
		var reads int64
		runFlat(t, 4, 1, func(c *mpi.Comm, sys storage.System) {
			fh := Open(c, sys, "x", storage.FileOptions{}, Hints{CBNodes: 2, DisableSieving: disable})
			// Only 4 of every 38 bytes written: sparse.
			fh.WriteAtAll([]storage.Seg{storage.Strided(int64(c.Rank())*4, 4, 38, 200)})
			if c.Rank() == 0 {
				reads = fh.Storage().BytesRead()
			}
			fh.Close()
		})
		if disable && reads != 0 {
			t.Errorf("sieving disabled but read %d bytes", reads)
		}
		if !disable && reads == 0 {
			t.Error("sieving enabled but no sieve reads")
		}
	}
}

func TestMultipleCollectiveCallsPartialBuffers(t *testing.T) {
	// The paper's Fig. 2: three separate collective calls (x, y, z) cannot
	// merge — write-op count must be ~3× that of a single merged call.
	const ranks = 4
	const n = 1 << 14
	countOps := func(calls int) int64 {
		var ops int64
		runFlat(t, ranks, 2, func(c *mpi.Comm, sys storage.System) {
			fh := Open(c, sys, "f", storage.FileOptions{}, Hints{CBNodes: 2, CBBufferSize: 1 << 20})
			stride := int64(ranks * n)
			for v := 0; v < calls; v++ {
				off := int64(v)*stride + int64(c.Rank())*n
				fh.WriteAtAll([]storage.Seg{storage.Contig(off, n)})
			}
			if c.Rank() == 0 {
				ops = fh.Storage().WriteOps()
			}
			fh.Close()
		})
		return ops
	}
	one := countOps(1)
	three := countOps(3)
	if three < 3*one {
		t.Fatalf("3 calls did %d ops, single call %d — calls merged?", three, one)
	}
}
