package mpi

import (
	"fmt"
	"sort"

	"tapioca/internal/sim"
)

// collective runs one bulk-synchronous collective call. Every rank of the
// communicator must call it with the same kind, in the same order (matched
// collectives, as the MPI standard requires — mismatches panic, surfacing
// real bugs). finish runs once, on the last-arriving rank, and returns the
// shared result plus the common release time.
func (c *Comm) collective(kind string, contrib any, finish func(contribs []any, maxT int64) (any, int64)) any {
	return c.collectiveImpl(kind, contrib, finish, nil, 0, false)
}

// collectiveImpl carries both finish shapes: the internal (contribs, maxT)
// form, and the user (contribs)-only form whose release is the tree cost
// over bytes — passed directly so the hot Collective path does not allocate
// a wrapper closure per call. With neither, the collective is a barrier.
// With carry, a Barrier follows the collective, and a rank that waits at
// the collective waits out the barrier in the same park.
func (c *Comm) collectiveImpl(kind string, contrib any, finish func(contribs []any, maxT int64) (any, int64), userFinish func(contribs []any) any, bytes int64, carry bool) any {
	rv, p := &c.s.rv, c.p
	// Waiters read the result after the release, so a gate with one stays
	// out of the free list until they have; a barrier's is recycled at once.
	reads := finish != nil || userFinish != nil || carry
	entry := p.Now()
	g, last := rv.arrive(kind, c.epoch, c.Size(), entry)
	c.epoch++
	if reads && g.contribs == nil {
		g.contribs = make([]any, g.n)
	}
	if contrib != nil {
		g.contribs[c.rank] = contrib
		g.hasData = true
	}
	if last {
		// Last arriver: compute, then release everyone at the common time.
		var res any
		var release int64
		if finish != nil {
			res, release = finish(g.contribs, g.maxT)
		} else {
			if userFinish != nil {
				res = userFinish(g.contribs)
			}
			release = c.TreeCost(g.maxT, bytes)
		}
		release = max(release, g.maxT)
		g.result = res
		if reads {
			g.readers = len(g.waiters) + len(g.carried)
		}
		rv.release(p.Engine(), g, release)
		p.HoldUntil(release)
		p.TraceSpan("mpi", kind, entry, p.Now(), 0)
		if carry {
			c.Barrier()
		}
		return res
	}
	if carry {
		g.carried = append(g.carried, p)
	} else {
		g.waiters = append(g.waiters, p)
	}
	p.Park(kind)
	var res any
	if reads {
		res = g.result
		if carry {
			c.epoch++ // the barrier it was carried into
			p.TraceSpan("mpi", kind, entry, g.release, 0)
			kind, entry = barrierKind, g.release
		}
		if g.readers--; g.readers == 0 {
			rv.recycle(g)
		}
	}
	p.TraceSpan("mpi", kind, entry, p.Now(), 0)
	return res
}

// Collective runs a user-defined collective operation: every rank's contrib
// is gathered, finish runs exactly once (on the last-arriving rank) over the
// contributions indexed by comm rank, and its result is returned to every
// rank. The cost model is a tree collective moving bytes per rank. This is
// the building block for library-level collectives that must not replicate
// O(P) work on every rank (e.g. two-phase I/O plan construction).
//
// kind labels the operation for collective matching; it must not start with
// the reserved "mpi:" prefix the built-in collectives use. Callers pass
// constant strings, so matching compares interned pointers — no per-call
// allocation, unlike the prefix concatenation this replaces.
func (c *Comm) Collective(kind string, contrib any, bytes int64, finish func(contribs []any) any) any {
	checkUserKind(kind)
	return c.collectiveImpl(kind, contrib, nil, finish, bytes, false)
}

// CollectiveThenBarrier is Collective followed by Barrier. A rank that waits
// at the collective is entered into the barrier at the collective's release
// without being resumed, so it parks once for both. Its clock and the
// barrier's release are those of the two calls in sequence, which holds
// because the rank does nothing between them.
func (c *Comm) CollectiveThenBarrier(kind string, contrib any, bytes int64, finish func(contribs []any) any) any {
	checkUserKind(kind)
	return c.collectiveImpl(kind, contrib, nil, finish, bytes, true)
}

// CollectivePriced is Collective with the release time priced by the
// caller: finish runs once, on the last-arriving rank, over the
// contributions and the latest arrival time, and returns the shared result
// and the time every rank resumes at (never earlier than the latest
// arrival). finish may advance the calling proc's clock — e.g. HoldUntil the
// instant it books shared resources at — since every other member is parked
// until the release. This lets a library run a synchronization on a small
// sub-communicator while charging what a world-wide one would cost (see
// TreeCost).
func (c *Comm) CollectivePriced(kind string, contrib any, finish func(contribs []any, maxT int64) (any, int64)) any {
	checkUserKind(kind)
	return c.collectiveImpl(kind, contrib, finish, nil, 0, false)
}

func checkUserKind(kind string) {
	if len(kind) >= 4 && kind[:4] == "mpi:" {
		panic(fmt.Sprintf("mpi: user collective kind %q uses the reserved mpi: prefix", kind))
	}
}

// TreeCost is the release time of a tree collective over this comm whose
// last rank arrives at maxT, moving bytes per rank: the LogP-style ⌈log₂P⌉
// rounds of per-round latency plus the bandwidth term on the injection rate.
// Barrier is TreeCost with zero bytes.
func (c *Comm) TreeCost(maxT int64, bytes int64) int64 {
	rounds := logRounds(c.Size())
	inject := c.s.w.fabric.Config().InjectRate
	return maxT + rounds*c.alpha() + rounds*sim.TransferTime(bytes, inject)
}

// Barrier blocks until all ranks of the communicator arrive, and releases
// them at the tree cost of a zero-byte collective.
func (c *Comm) Barrier() {
	c.collectiveImpl(barrierKind, nil, nil, nil, 0, false)
}

// FenceLocal is a node-scoped rendezvous with leader-fence semantics: every
// rank contributes the virtual time its local work completes (e.g. a
// shared-memory staging deposit — pass 0 when there is none), and all ranks
// release together at the latest contribution-or-arrival plus one software
// overhead. It returns that common release time.
//
// Unlike Barrier, this is priced as a shared-memory flag rendezvous, not a
// tree collective: for node-scoped communicators (MPI_Comm_split_type with
// COMM_TYPE_SHARED) the members share a coherence domain, so charging
// ⌈log₂P⌉ rounds of fabric latency would overprice the synchronization
// ppn-fold. The intra-node staging leader
// fences on this before reading members' deposits.
func (c *Comm) FenceLocal(ready int64) int64 {
	res := c.collective("mpi:fence-local", ready, func(contribs []any, maxT int64) (any, int64) {
		hi := maxT
		for _, x := range contribs {
			if t := x.(int64); t > hi {
				hi = t
			}
		}
		hi += callOverhead
		return hi, hi
	})
	return res.(int64)
}

// Bcast broadcasts root's payload to every rank and returns it.
func (c *Comm) Bcast(root int, bytes int64, payload any) any {
	var contrib any
	if c.rank == root {
		contrib = payload
	}
	return c.collective("mpi:bcast", contrib, func(contribs []any, maxT int64) (any, int64) {
		return contribs[root], c.TreeCost(maxT, bytes)
	})
}

// Reduction operations.
type Op int

const (
	OpSum Op = iota
	OpMin
	OpMax
)

func applyOpF64(op Op, vals []float64) float64 {
	acc := vals[0]
	for _, v := range vals[1:] {
		switch op {
		case OpSum:
			acc += v
		case OpMin:
			if v < acc {
				acc = v
			}
		case OpMax:
			if v > acc {
				acc = v
			}
		}
	}
	return acc
}

// AllreduceF64 reduces one float64 per rank with op and returns the result
// on every rank.
func (c *Comm) AllreduceF64(op Op, v float64) float64 {
	res := c.collective("mpi:allreduce-f64", v, func(contribs []any, maxT int64) (any, int64) {
		vals := make([]float64, len(contribs))
		for i, x := range contribs {
			vals[i] = x.(float64)
		}
		return applyOpF64(op, vals), c.TreeCost(maxT, 8)
	})
	return res.(float64)
}

// AllreduceI64 reduces one int64 per rank with op.
func (c *Comm) AllreduceI64(op Op, v int64) int64 {
	res := c.collective("mpi:allreduce-i64", v, func(contribs []any, maxT int64) (any, int64) {
		acc := contribs[0].(int64)
		for _, x := range contribs[1:] {
			v := x.(int64)
			switch op {
			case OpSum:
				acc += v
			case OpMin:
				if v < acc {
					acc = v
				}
			case OpMax:
				if v > acc {
					acc = v
				}
			}
		}
		return acc, c.TreeCost(maxT, 8)
	})
	return res.(int64)
}

type minloc struct {
	val float64
	loc int
}

// AllreduceMinLoc returns the minimum value and the location (rank-supplied
// integer) that attains it — MPI_MINLOC, the primitive the paper's
// aggregator election uses. Ties resolve to the smallest location, making
// elections deterministic.
func (c *Comm) AllreduceMinLoc(v float64, loc int) (float64, int) {
	res := c.collective("mpi:allreduce-minloc", minloc{v, loc}, func(contribs []any, maxT int64) (any, int64) {
		best := contribs[0].(minloc)
		for _, x := range contribs[1:] {
			m := x.(minloc)
			if m.val < best.val || (m.val == best.val && m.loc < best.loc) {
				best = m
			}
		}
		return best, c.TreeCost(maxT, 16)
	})
	m := res.(minloc)
	return m.val, m.loc
}

// AllreduceMaxLoc returns the maximum value and its location (MPI_MAXLOC).
func (c *Comm) AllreduceMaxLoc(v float64, loc int) (float64, int) {
	res := c.collective("mpi:allreduce-maxloc", minloc{v, loc}, func(contribs []any, maxT int64) (any, int64) {
		best := contribs[0].(minloc)
		for _, x := range contribs[1:] {
			m := x.(minloc)
			if m.val > best.val || (m.val == best.val && m.loc < best.loc) {
				best = m
			}
		}
		return best, c.TreeCost(maxT, 16)
	})
	m := res.(minloc)
	return m.val, m.loc
}

// splitEntry carries one rank's Split arguments.
type splitEntry struct {
	color, key, rank int
}

// Split partitions the communicator: ranks supplying the same color form a
// new communicator, ordered by (key, rank). A negative color opts out and
// returns nil. The paper's per-partition aggregator election runs on these
// sub-communicators.
func (c *Comm) Split(color, key int) *Comm {
	res := c.collective("mpi:split", splitEntry{color, key, c.rank}, func(contribs []any, maxT int64) (any, int64) {
		entries := make([]splitEntry, len(contribs))
		for i, x := range contribs {
			entries[i] = x.(splitEntry)
		}
		sort.Slice(entries, func(i, j int) bool {
			a, b := entries[i], entries[j]
			if a.color != b.color {
				return a.color < b.color
			}
			if a.key != b.key {
				return a.key < b.key
			}
			return a.rank < b.rank
		})
		handles := make([]*Comm, len(entries))
		i := 0
		for i < len(entries) {
			j := i
			for j < len(entries) && entries[j].color == entries[i].color {
				j++
			}
			if entries[i].color >= 0 {
				worldRanks := make([]int, 0, j-i)
				for _, e := range entries[i:j] {
					worldRanks = append(worldRanks, c.s.ranks[e.rank])
				}
				ns := c.s.w.newCommShared(worldRanks)
				for nr, e := range entries[i:j] {
					h := ns.handle(nr)
					handles[e.rank] = h
				}
			}
			i = j
		}
		return handles, c.TreeCost(maxT, 8)
	})
	h := res.([]*Comm)[c.rank]
	if h != nil {
		h.p = c.p
	}
	return h
}

// Carve builds a communicator over the listed ranks of c (new rank i is
// ranks[i]) and returns its handles, indexed like ranks. Unlike Split it is
// not collective and costs no virtual time: one rank builds it and hands
// the handles to the members inside a payload they exchange anyway, such as
// a Bcast the caller already pays for. Each member binds its handle with
// Adopt before using it.
func (c *Comm) Carve(ranks []int) []*Comm {
	world := make([]int, len(ranks))
	for i, r := range ranks {
		world[i] = c.s.ranks[r]
	}
	ns := c.s.w.newCommShared(world)
	handles := make([]*Comm, len(ranks))
	for i := range handles {
		handles[i] = ns.handle(i)
	}
	return handles
}

// Adopt binds a carved handle to the calling rank's proc and returns it.
// The handle must be the caller's own.
func (c *Comm) Adopt(h *Comm) *Comm {
	if h.WorldRank() != c.WorldRank() {
		panic(fmt.Sprintf("mpi: world rank %d adopting the handle of world rank %d", c.WorldRank(), h.WorldRank()))
	}
	h.p = c.p
	return h
}
