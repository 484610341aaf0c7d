package core

import (
	"tapioca/internal/cost"
)

// elect chooses the partition's aggregator (a partition-comm rank) under the
// configured placement strategy. Collective on the partition communicator:
// every member evaluates its own candidacy against the shared cost model
// (internal/cost) and the placement's reduction picks the winner. The C1/C2
// arithmetic itself lives in cost.Model — the same engine the MPI-IO
// baseline consumes — so this file only wires the partition's data into an
// election.
func (w *Writer) elect() int {
	pc := w.pc
	pp := &w.plan.parts[w.part]

	// Every member sees the identical table, so the first caller builds it
	// once on the shared plan and the partition's other ranks reuse it —
	// election setup is O(P) per partition, not O(P) per rank. (Engine procs
	// are serial, so the lazy fill needs no synchronization; placements
	// treat Members as read-only.)
	if pp.members == nil {
		members := make([]cost.Member, pc.Size())
		for local := range members {
			members[local] = cost.Member{Node: pc.NodeOfRank(local), Bytes: pp.omega[local]}
		}
		pp.members = members
	}
	e := &cost.Election{
		Model:       w.model(),
		Members:     pp.members,
		IOBytes:     pp.bytes,
		Partition:   w.part,
		Self:        pc.Rank(),
		MinLoc:      pc.AllreduceMinLoc,
		MaxLoc:      pc.AllreduceMaxLoc,
		Barrier:     pc.Barrier,
		ObserveCost: func(c float64) { w.stats.ElectionCost = c },
	}
	return w.cfg.Placement.Elect(e)
}

// model returns the session's cost model: the machine-wide memoized distance
// cache plus the storage tier's C2 hook (a burst buffer absorbs flushes at
// ingest speed, so its cost opinion overrides the uplink formula). Every rank
// prices with the same immutable model, so the first caller builds it on the
// shared plan, like the election table.
func (w *Writer) model() *cost.Model {
	if w.plan.model == nil {
		w.plan.model = cost.MachineModel(w.c.World().Fabric().Distances(), w.sys)
	}
	return w.plan.model
}
