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
	t := maxT + ElectionOverhead
	var redBytes int64
	pp.agg, redBytes = w.electPartition(pp)
	t = pc.TreeCost(t, redBytes)
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
// rank) under the configured placement, with one Elect call over the whole
// member table: placements are deterministic, so it elects what every
// member pricing its own candidacy (internal/cost) and reducing across the
// partition would. Every member's candidacy cost lands in pp.costs. It also
// returns the bytes per rank of the collective the members would run: 16
// for the MINLOC or MAXLOC reduction of a cost-driven placement, 0 for the
// barrier of a heuristic that reports no costs.
func (w *Writer) electPartition(pp *partPlan) (winner int, redBytes int64) {
	pp.members = make([]cost.Member, pp.rankN)
	for local := range pp.members {
		pp.members[local] = cost.Member{Node: w.pc.NodeOfRank(local), Bytes: pp.omega[local]}
	}
	e := &cost.Election{
		Model:     w.model(),
		Members:   pp.members,
		IOBytes:   pp.bytes,
		Partition: w.part,
	}
	winner = w.cfg.Placement.Elect(e)
	pp.costs = e.Costs
	if pp.costs == nil {
		pp.costs = make([]float64, pp.rankN)
		return winner, 0
	}
	return winner, 16
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
