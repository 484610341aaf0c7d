package core

import (
	"tapioca/internal/cost"
	"tapioca/internal/mpi"
)

// setupPartition runs the partition's setup once for all members, on the
// last one to arrive at the setup rendezvous (every member arrives at the
// same instant maxT, the world setup's release). It elects the aggregator,
// fills the fence attendance, carves the window and, under a staged shape,
// the node communicators and staging roles. It returns the rendezvous's
// release: maxT advanced, in order, by the election compute and the price
// of each collective a per-rank setup would run — the election's reduction,
// WinCreate and the Split by node.
func (w *Writer) setupPartition(pp *partPlan, maxT int64) int64 {
	pc := w.pc
	t := maxT
	if w.cfg.ElectionOverhead > 0 {
		t += w.cfg.ElectionOverhead
	}
	var redBytes int64
	pp.agg, redBytes = w.electPartition(pp)
	if redBytes >= 0 {
		t = pc.TreeCost(t, redBytes)
	}
	pp.countAttendance(w.plan, pp.agg)
	pp.win = pc.CarveWin(2 * w.cfg.BufferSize)
	t = pc.TreeCost(t, 0)
	if sh := w.cfg.Shape(); sh.Staged() {
		pp.staging = w.buildStaging(sh, pp)
		t = pc.TreeCost(t, 8)
	}
	return t
}

// electPartition chooses the partition's aggregator (a partition-local
// rank) under the configured placement, once for all members: the
// placement's collective mode runs once per member against recording hooks,
// each member pricing its own candidacy with the shared cost model
// (internal/cost), and the recorded values reduce exactly as the
// partition's Allreduce would. A placement that reduces nothing elects what
// it returns. Every member's observed candidacy cost lands in pp.costs. It
// also returns the bytes per rank of the collective the members would have
// run: 16 for a MinLoc or MaxLoc reduction, 0 for a barrier, -1 for none.
func (w *Writer) electPartition(pp *partPlan) (winner int, redBytes int64) {
	pc := w.pc
	pp.members = make([]cost.Member, pp.rankN)
	for local := range pp.members {
		pp.members[local] = cost.Member{Node: pc.NodeOfRank(local), Bytes: pp.omega[local]}
	}
	pp.costs = make([]float64, pp.rankN)
	redBytes = -1
	best, self := 0.0, 0
	reduce := func(maxLoc bool) func(float64, int) (float64, int) {
		return func(v float64, loc int) (float64, int) {
			// AllreduceMinLoc's and AllreduceMaxLoc's rule: the extreme
			// value wins, ties go to the lowest location.
			if redBytes < 16 || (maxLoc && v > best) || (!maxLoc && v < best) || (v == best && loc < winner) {
				best, winner = v, loc
			}
			redBytes = 16
			return v, loc
		}
	}
	e := &cost.Election{
		Model:       w.model(),
		Members:     pp.members,
		IOBytes:     pp.bytes,
		Partition:   w.part,
		MinLoc:      reduce(false),
		MaxLoc:      reduce(true),
		Barrier:     func() { redBytes = max(redBytes, 0) },
		ObserveCost: func(c float64) { pp.costs[self] = c },
	}
	elected := 0
	for ; self < pp.rankN; self++ {
		e.Self = self
		if got := w.cfg.Placement.Elect(e); self == 0 {
			elected = got
		}
	}
	if redBytes < 16 {
		winner = elected
	}
	return winner, redBytes
}

// carvePartitions builds every partition's communicator over c, in
// partition order — the order Split creates them in.
func carvePartitions(c *mpi.Comm, p *plan) {
	for i := range p.parts {
		pp := &p.parts[i]
		ranks := make([]int, pp.rankN)
		for l := range ranks {
			ranks[l] = pp.rankLo + l
		}
		pp.comms = c.Carve(ranks)
	}
}

// model returns the session's cost model: the machine-wide memoized distance
// cache plus the storage tier's C2 hook (a burst buffer absorbs flushes at
// ingest speed, so its cost opinion overrides the uplink formula). Every rank
// prices with the same immutable model, so the first caller builds it on the
// shared plan.
func (w *Writer) model() *cost.Model {
	if w.plan.model == nil {
		w.plan.model = cost.MachineModel(w.c.World().Fabric().Distances(), w.sys)
	}
	return w.plan.model
}
