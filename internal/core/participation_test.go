package core

import (
	"testing"

	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

// TestCountAttendance pins the participation rule on a hand-built schedule:
// the aggregator attends every fence, a member attends write fence r for
// pieces in round r or r+1, and read fences r for pieces in round r.
func TestCountAttendance(t *testing.T) {
	// Partition of four members over five rounds; member 0 aggregates.
	rounds := [][]int{
		{1},    // the aggregator's own pieces
		{0, 2}, // skips round 1
		{},     // zero-op member
		{4},
	}
	p := &plan{parts: []partPlan{{rankN: 4, rounds: 5}}, pieceOff: []int32{0}}
	for _, rs := range rounds {
		for _, r := range rs {
			p.pieces = append(p.pieces, putPiece{round: r, bytes: 1})
		}
		p.pieceOff = append(p.pieceOff, int32(len(p.pieces)))
	}
	pp := &p.parts[0]
	pp.countAttendance(p, 0)
	wantW := []int32{2, 2, 2, 2, 2} // member 1: rounds 0,1(for 2),2; member 3: 3,4
	wantR := []int32{2, 1, 2, 1, 2}
	for r := range wantW {
		if pp.writeFence[r] != wantW[r] || pp.readFence[r] != wantR[r] {
			t.Fatalf("attendance write %v read %v, want %v and %v", pp.writeFence, pp.readFence, wantW, wantR)
		}
	}
}

// TestSparseFenceParks is a deterministic work counter for the participation
// rule: an IOR-shaped write and read session, where few members contribute
// to each of many rounds, must park no more than the plan's per-round fence
// attendance allows (plus the closing barrier and the aggregator's flush
// waits). All-rank fences exceed the bound on any machine, whatever the
// wall-clock noise.
func TestSparseFenceParks(t *testing.T) {
	topo := topology.ThetaDragonfly(goldenNodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
	const rpn = 4
	ranks := goldenNodes * rpn
	decl := iorDecl(ranks)
	cfg := Config{Aggregators: 2, BufferSize: 8 << 10}
	var parks, bound, allRank [2]int64
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("parks", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		eng := c.Proc().Engine()
		for i := range parks {
			wr := New(c, sys, f, cfg)
			if err := wr.Init(decl[c.Rank()]); err != nil {
				t.Error(err)
				return
			}
			c.Barrier()
			start := eng.Parks()
			var err error
			if i == 0 {
				err = wr.WriteAll()
			} else {
				err = wr.ReadAll()
			}
			if err != nil {
				t.Error(err)
			}
			c.Barrier()
			if c.Rank() != 0 {
				continue
			}
			parks[i] = eng.Parks() - start
			bound[i] = int64(ranks) // the closing world barrier
			for pi := range wr.plan.parts {
				pp := &wr.plan.parts[pi] // attendance filled by Init
				for r := 0; r < pp.rounds; r++ {
					if i == 0 {
						bound[i] += int64(pp.writeFence[r])
					} else {
						bound[i] += 2 * int64(pp.readFence[r])
					}
				}
				bound[i] += int64(pp.rankN + 2*pp.rounds)
				allRank[i] += int64(pp.rounds*(pp.rankN-1)) * int64(i+1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"write", "read"} {
		t.Logf("%s: %d parks, bound %d, all-rank fences alone %d", name, parks[i], bound[i], allRank[i])
		if parks[i] > bound[i] {
			t.Errorf("%s session parked %d times, the plan's fence attendance allows %d", name, parks[i], bound[i])
		}
		if bound[i] >= allRank[i] {
			t.Errorf("%s: bound %d does not separate from all-rank fences (%d parks)", name, bound[i], allRank[i])
		}
	}
}

// TestInitParks is a deterministic work counter for session setup: Init
// runs one rendezvous on the world and one on the partition, so on any
// shape a 64-rank session parks at most twice per rank in Init. A setup
// that performs the election, the window creation or the node split as
// collectives of their own parks four to five times.
func TestInitParks(t *testing.T) {
	topo := topology.ThetaDragonfly(goldenNodes, topology.RouteMinimal)
	const rpn = 4
	ranks := goldenNodes * rpn
	decl := iorDecl(ranks)
	for _, spec := range []string{"flat", "staged", "fanin:2"} {
		sh, err := tree.ParseShape(spec)
		if err != nil {
			t.Fatal(err)
		}
		fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
		cfg := Config{Aggregators: 2, BufferSize: 8 << 10, Tree: &sh}
		var parks int64
		_, err = mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("parks", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			eng := c.Proc().Engine()
			wr := New(c, sys, f, cfg)
			start := eng.Parks()
			if err := wr.Init(decl[c.Rank()]); err != nil {
				t.Error(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				// The closing barrier parks every rank but its last arriver.
				parks = eng.Parks() - start - int64(ranks-1)
			}
			if err := wr.WriteAll(); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d parks in Init, %.2f per rank", spec, parks, float64(parks)/float64(ranks))
		if parks > 2*int64(ranks) {
			t.Errorf("%s: Init parked %d times on %d ranks, want at most 2 per rank", spec, parks, ranks)
		}
	}
}

// TestSessionParks pins the exact park totals of WriteAll and ReadAll per
// tree shape on TestInitParks's 64-rank dragonfly session. Parks are a
// deterministic work counter: a change to the pipeline's synchronization or
// to the engine's scheduling that adds or drops a blocking wait moves these
// numbers on any machine. A change that moves them on purpose updates the
// table and says why.
func TestSessionParks(t *testing.T) {
	topo := topology.ThetaDragonfly(goldenNodes, topology.RouteMinimal)
	const rpn = 4
	ranks := goldenNodes * rpn
	decl := iorDecl(ranks)
	want := map[string][2]int64{ // shape: {WriteAll, ReadAll}
		"flat":    {222, 247},
		"staged":  {959, 247},
		"fanin:2": {2509, 247},
	}
	for _, spec := range []string{"flat", "staged", "fanin:2"} {
		sh, err := tree.ParseShape(spec)
		if err != nil {
			t.Fatal(err)
		}
		fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
		sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
		cfg := Config{Aggregators: 2, BufferSize: 8 << 10, Tree: &sh}
		var parks [2]int64
		_, err = mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
			var f *storage.File
			if c.Rank() == 0 {
				f = sys.Create("parks", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
			}
			f = c.Bcast(0, 8, f).(*storage.File)
			eng := c.Proc().Engine()
			for i := range parks {
				wr := New(c, sys, f, cfg)
				if err := wr.Init(decl[c.Rank()]); err != nil {
					t.Error(err)
					return
				}
				c.Barrier()
				start := eng.Parks()
				var err error
				if i == 0 {
					err = wr.WriteAll()
				} else {
					err = wr.ReadAll()
				}
				if err != nil {
					t.Error(err)
				}
				c.Barrier()
				if c.Rank() == 0 {
					// The closing barrier parks every rank but its last arriver.
					parks[i] = eng.Parks() - start - int64(ranks-1)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: WriteAll %d parks (%.2f per rank), ReadAll %d (%.2f per rank)", spec,
			parks[0], float64(parks[0])/float64(ranks), parks[1], float64(parks[1])/float64(ranks))
		if parks != want[spec] {
			t.Errorf("%s: {WriteAll, ReadAll} parked %v times, want %v", spec, parks, want[spec])
		}
	}
}
