package core

import (
	"math"
	"sync"
	"testing"

	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/storage"
)

// uniformDecl gives every rank one 4 KiB block, ranks back to back: members
// on one node present identical candidacies, so their costs tie exactly.
func uniformDecl(ranks int) [][][]storage.Seg {
	decl := make([][][]storage.Seg, ranks)
	for r := range decl {
		decl[r] = [][]storage.Seg{{storage.Contig(int64(r)<<12, 1<<12)}}
	}
	return decl
}

// TestElectionMatchesCollective: for every placement, the election Init runs
// once per partition picks the same aggregator and records the same
// per-member candidacy cost as a per-rank election whose reductions run as
// real partition collectives (AllreduceMinLoc, AllreduceMaxLoc, Barrier).
// The tied cases put whole partitions, or pairs of their members, on one
// node with equal volumes, so MINLOC's and MAXLOC's lowest-location rule
// decides the winner.
func TestElectionMatchesCollective(t *testing.T) {
	placements := []cost.Placement{
		cost.TopologyAware(), cost.RankOrder(), cost.Worst(), cost.Random(),
		cost.TwoLevel(), cost.NodeSpread(), cost.BridgeFirst(),
	}
	cases := []struct {
		name  string
		ranks int
		rpn   int
		decl  func(ranks int) [][][]storage.Seg
		tied  bool // members 0 and 1 of every partition share a cost
	}{
		{name: "tied-one-node", ranks: 16, rpn: 8, decl: uniformDecl, tied: true},
		{name: "tied-pairs", ranks: 34, rpn: 2, decl: uniformDecl, tied: true},
		{name: "ior", ranks: 33, rpn: 3, decl: iorDecl},
	}
	for _, tc := range cases {
		for _, pl := range placements {
			fab, sys := goldenPlatform(false)
			decl := tc.decl(tc.ranks)
			cfg := Config{Aggregators: 2, BufferSize: 8 << 10, Placement: pl}
			var mu sync.Mutex
			costs := make([]float64, tc.ranks)
			_, err := mpi.Run(mpi.Config{Ranks: tc.ranks, RanksPerNode: tc.rpn, Fabric: fab}, func(c *mpi.Comm) {
				var f *storage.File
				if c.Rank() == 0 {
					f = sys.Create("elect", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
				}
				f = c.Bcast(0, 8, f).(*storage.File)
				wr := New(c, sys, f, cfg)
				if err := wr.Init(decl[c.Rank()]); err != nil {
					t.Error(err)
					return
				}
				pp := &wr.plan.parts[wr.part]
				var own float64
				ref := pl.Elect(&cost.Election{
					Model:       wr.model(),
					Members:     pp.members,
					IOBytes:     pp.bytes,
					Partition:   wr.part,
					Self:        wr.pc.Rank(),
					MinLoc:      wr.pc.AllreduceMinLoc,
					MaxLoc:      wr.pc.AllreduceMaxLoc,
					Barrier:     wr.pc.Barrier,
					ObserveCost: func(v float64) { own = v },
				})
				mu.Lock()
				defer mu.Unlock()
				costs[c.Rank()] = own
				if ref != wr.aggLocal {
					t.Errorf("%s/%s rank %d: collective election picked member %d, once-per-partition %d",
						tc.name, pl.Name(), c.Rank(), ref, wr.aggLocal)
				}
				if got := wr.Stats().ElectionCost; math.Float64bits(got) != math.Float64bits(own) {
					t.Errorf("%s/%s rank %d: ElectionCost %v, collective election observed %v",
						tc.name, pl.Name(), c.Rank(), got, own)
				}
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, pl.Name(), err)
			}
			if tc.tied && pl.Name() == "topology-aware" && (costs[0] != costs[1] || costs[0] == 0) {
				t.Errorf("%s: members 0 and 1 cost %v and %v, the case needs a tie", tc.name, costs[0], costs[1])
			}
		}
	}
}
