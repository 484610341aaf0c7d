package mpi

import (
	"fmt"
	"slices"

	"tapioca/internal/sim"
)

// gate is one rendezvous: a collective call, or one window fence epoch. n
// ranks arrive, the last one runs the finish, and every waiter is released
// at one time. Gates are numbered by epoch — each rank counts its own
// collectives per communicator and its own fences per window — so a rank
// can wait at a later epoch while an earlier gate is still open; gates
// release strictly in epoch order. Released gates are recycled through
// their rendezvous' free list, so steady-state collectives and fences
// allocate nothing.
type gate struct {
	kind     string
	epoch    int64
	n        int // arrivals that close the gate
	arrived  int
	readers  int // waiters still to read the result after the release
	maxT     int64
	contribs []any // per-rank contributions, allocated on first use
	hasData  bool  // any non-nil contribution stored
	waiters  []*sim.Proc
	carried  []*sim.Proc // waiters that go on, still parked, to the next epoch's barrier
	result   any
	release  int64
}

// The kinds of the built-in rendezvous that gate code names.
const barrierKind, fenceKind = "mpi:barrier", "mpi:win-fence"

// rendezvous holds the gates of one communicator's collectives or of one
// window's fences.
type rendezvous struct {
	comm     int     // communicator id, for diagnostics
	open     []*gate // gates with arrivals and no release yet
	free     []*gate // recycled gates
	released int64   // epochs released so far
}

// arrive enters one arrival at time t into epoch's gate, opening the gate on
// the epoch's first arrival, and reports whether the arrival closes it.
func (rv *rendezvous) arrive(kind string, epoch int64, n int, t int64) (*gate, bool) {
	var g *gate
	for _, o := range rv.open {
		if o.epoch == epoch {
			g = o
			break
		}
	}
	switch {
	case g != nil && (g.kind != kind || g.n != n), g == nil && epoch < rv.released:
		rv.refuse(g, kind, epoch, n)
	case g == nil:
		if k := len(rv.free); k > 0 {
			g = rv.free[k-1]
			rv.free = rv.free[:k-1]
		} else {
			g = &gate{}
		}
		g.kind, g.epoch, g.n = kind, epoch, n
		if cap(g.waiters) < n-1 {
			g.waiters = make([]*sim.Proc, 0, n-1)
		}
		rv.open = append(rv.open, g)
	}
	g.arrived++
	g.maxT = max(g.maxT, t)
	return g, g.arrived == g.n
}

// refuse panics with why an arrival cannot enter epoch's gate g (nil once
// released), or, with an empty kind, why g cannot release yet. It is kept
// out of arrive and release so that the frames every rank pushes stay small.
func (rv *rendezvous) refuse(g *gate, kind string, epoch int64, n int) {
	switch {
	case kind == "":
		panic(fmt.Sprintf("mpi: %s epoch %d on comm %d complete before epoch %d released", g.kind, g.epoch, rv.comm, rv.released))
	case g == nil:
		panic(fmt.Sprintf("mpi: arrival at %s epoch %d on comm %d, already released (arrival count too small?)", kind, epoch, rv.comm))
	case g.kind != kind:
		panic(fmt.Sprintf("mpi: mismatched collectives on comm %d: %s vs %s", rv.comm, g.kind, kind))
	default:
		panic(fmt.Sprintf("mpi: %s epoch %d on comm %d attended with counts %d and %d", kind, epoch, rv.comm, g.n, n))
	}
}

// release closes g at time at, which g's last arriver calls once it has set
// g.result and g.readers. Carried waiters are entered into the next epoch's
// barrier with arrival time at, and stay parked; the others are unparked at
// at. The gate is recycled at once unless readers remain.
func (rv *rendezvous) release(eng *sim.Engine, g *gate, at int64) {
	if g.epoch != rv.released {
		rv.refuse(g, "", g.epoch, 0)
	}
	rv.released++
	i := slices.Index(rv.open, g)
	rv.open = slices.Delete(rv.open, i, i+1)
	g.release = at
	eng.UnparkBatch(g.waiters, at)
	for _, p := range g.carried {
		next, _ := rv.arrive(barrierKind, g.epoch+1, g.n, at)
		next.waiters = append(next.waiters, p)
		eng.Rewait(p, barrierKind)
	}
	if g.readers == 0 {
		rv.recycle(g)
	}
}

// recycle clears a released gate, dropping payload references, and puts it
// on the free list.
func (rv *rendezvous) recycle(g *gate) {
	if g.hasData { // barriers and fences skip the O(P) clear
		clear(g.contribs)
		g.hasData = false
	}
	clear(g.waiters)
	clear(g.carried)
	g.waiters, g.carried = g.waiters[:0], g.carried[:0]
	g.kind, g.result = "", nil
	g.arrived, g.readers, g.maxT, g.release = 0, 0, 0, 0
	rv.free = append(rv.free, g)
}
