package core

import (
	"math"
	"slices"
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

// collectiveElect is the per-rank election the paper describes (§IV-B):
// the calling rank prices its own candidacy and the partition reduces the
// costs through real collectives on pc. It returns the elected member and
// the rank's own candidacy cost (0 when the placement prices none for it).
func collectiveElect(pl cost.Placement, pc *mpi.Comm, m *cost.Model, members []cost.Member, ioBytes int64, part int) (winner int, own float64) {
	self := pc.Rank()
	switch pl.Name() {
	case "topology-aware":
		own = m.CandidacyCost(members, self, ioBytes)
		_, winner = pc.AllreduceMinLoc(own, self)
	case "worst":
		own = m.CandidacyCost(members, self, ioBytes)
		_, winner = pc.AllreduceMaxLoc(own, self)
	case "two-level":
		// Only each node's first member is electable; the others carry +Inf
		// into the reduction and price nothing of their own.
		c := math.Inf(1)
		if slices.IndexFunc(members, func(mb cost.Member) bool { return mb.Node == members[self].Node }) == self {
			own = m.TwoLevelCost(members, self, ioBytes)
			c = own
		}
		_, winner = pc.AllreduceMinLoc(c, self)
	default:
		// The heuristics reduce no cost: the partition rendezvous at a
		// barrier and every member computes the same pick.
		pc.Barrier()
		winner = pl.Elect(&cost.Election{Members: members, IOBytes: ioBytes, Partition: part})
	}
	return winner, own
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
				ref, own := collectiveElect(pl, wr.pc, wr.model(), pp.members, pp.bytes, wr.part)
				mu.Lock()
				defer mu.Unlock()
				costs[c.Rank()] = own
				if ref != wr.aggLocal {
					t.Errorf("%s/%s rank %d: collective election picked member %d, once-per-partition %d",
						tc.name, pl.Name(), c.Rank(), ref, wr.aggLocal)
				}
				if got := wr.Stats().ElectionCost; math.Float64bits(got) != math.Float64bits(own) {
					t.Errorf("%s/%s rank %d: ElectionCost %v, collective election priced %v",
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
