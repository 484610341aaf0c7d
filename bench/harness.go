package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
)

// machine describes one simulated platform. Every cell builds a fresh one,
// so no booking state or cache warmth carries from one cell to the next.
type machine struct {
	mira  bool // Mira (BG/Q torus, GPFS with shared locks); else Theta (dragonfly, Lustre)
	nodes int
	rpn   int
	osts  int // Theta Lustre OST population
	// nullFS replaces the file system with storage.NullFS, isolating the
	// aggregation phase.
	nullFS bool
	// lossSeed, when non-zero, attaches the lossy-fabric fault plan of the
	// abl-tree regime with this seed.
	lossSeed uint64
}

// The abl-tree lossy regime: a 20% per-transfer drop probability, each drop
// retransmitted after a 1 ms timeout.
const (
	lossRate      = 0.2
	retransmitRTO = 1_000_000
)

func (m machine) ranks() int { return m.nodes * m.rpn }

// platform is one built machine.
type platform struct {
	topo topology.Topology
	dist *topology.DistanceCache
	fab  *netsim.Fabric
	sys  storage.System
}

// build constructs the machine, charging the topology and its distance cache
// to the pass's topology.build call.
func (m machine) build(p *pass) *platform {
	t0 := time.Now()
	var topo topology.Topology
	var torus *topology.Torus5D
	var dfly *topology.Dragonfly
	if m.mira {
		torus = topology.MiraTorus(m.nodes)
		topo = torus
	} else {
		dfly = topology.ThetaDragonfly(m.nodes, topology.RouteMinimal)
		topo = dfly
	}
	dist := topology.NewDistanceCache(topo)
	p.addCall("topology.build", time.Since(t0))

	pl := &platform{topo: topo, dist: dist}
	if m.mira {
		pl.fab = netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks, InjectRate: 2 * torus.TorusLinkBW})
	} else {
		pl.fab = netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	}
	pl.fab.ShareDistances(dist)
	switch {
	case m.nullFS:
		pl.sys = storage.NewNullFS()
	case m.mira:
		pl.sys = storage.NewGPFS(torus, pl.fab, storage.GPFSConfig{LockMode: storage.LockShared})
	default:
		pl.sys = storage.NewLustre(dfly, pl.fab, storage.LustreConfig{NumOST: m.osts})
	}
	if m.lossSeed != 0 {
		pl.fab.SetFaults(fault.NewPlan(fault.Config{
			Seed:              m.lossSeed,
			NetLossRate:       lossRate,
			RetransmitPenalty: retransmitRTO,
		}))
	}
	return pl
}

// cellDigest is the virtual result of one cell: the paper's numbers come from
// these, so a host-side optimization must leave them byte-identical.
type cellDigest struct {
	Cell      string `json:"cell"`
	VirtualNs int64  `json:"virtual_ns"`
	Transfers int64  `json:"transfers"`
}

// counts are the deterministic work counts of a pass. They repeat exactly
// for a given seed, traced or not.
type counts struct {
	transfers, fabricMessages, localTransfers, netBytes int64
	writeOps, readOps, bytesWritten, bytesRead          int64
	procs                                               int64
}

func (c *counts) add(o counts) {
	c.transfers += o.transfers
	c.fabricMessages += o.fabricMessages
	c.localTransfers += o.localTransfers
	c.netBytes += o.netBytes
	c.writeOps += o.writeOps
	c.readOps += o.readOps
	c.bytesWritten += o.bytesWritten
	c.bytesRead += o.bytesRead
	c.procs += o.procs
}

// pass is one measured pass over a workload: every cell of the workload, one
// after another, each on a fresh platform.
type pass struct {
	traced bool

	setup, wall time.Duration
	calls       map[string]time.Duration // host time per bracketed call, summed over the pass
	bytesMoved  map[string]int64         // payload bytes per data-plane call (host GB/s)
	work        counts
	digest      []cellDigest
	phases      obs.PhaseTotals // traced passes only
	retransmits int64           // traced passes only

	allocBytes, gcCycles uint64
	cpu                  time.Duration

	attempted, failed int
	errs              []string
}

func newPass(traced bool) *pass {
	return &pass{traced: traced, calls: map[string]time.Duration{}, bytesMoved: map[string]int64{}}
}

func (p *pass) addCall(name string, d time.Duration) { p.calls[name] += d }

// op records one attempted operation and, on failure, its reason.
func (p *pass) op(what string, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// stopwatch stamps host time on rank 0 at barriers the harness places
// between collective calls. A barrier releases only when every rank has
// finished the call before it, so each lap covers all ranks' work in that
// call. Plain and traced runs place the same barriers, so their virtual
// schedules are identical.
type stopwatch struct {
	p          *pass
	last, zero time.Time
}

// started ends the cell's set-up: platform, proc spawn, communicator splits
// and file creation. Collective over the world communicator.
func (sw *stopwatch) started(c *mpi.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		sw.zero = time.Now()
		sw.last = sw.zero
	}
}

// lap charges the host time since the previous stamp to call. Collective
// over the world communicator.
func (sw *stopwatch) lap(c *mpi.Comm, call string) {
	c.Barrier()
	if c.Rank() == 0 {
		now := time.Now()
		sw.p.addCall(call, now.Sub(sw.last))
		sw.last = now
	}
}

// cell describes one simulation: a fresh platform and one mpi.Run holding
// one or more collective sessions.
type cell struct {
	name string
	m    machine
	// sessions counts the collective sessions the body runs; each is one
	// attempted operation.
	sessions int
	// files maps each file the body touches to the bytes its sessions
	// declared; the file's counters must match.
	files map[string]expect
	// body runs on every rank; it calls sw.started once its set-up is done
	// and sw.lap after each collective call.
	body func(c *mpi.Comm, pl *platform, sw *stopwatch)
	// check, when set, runs after the simulation over the per-rank results
	// the body left. It returns one entry per check operation, the same
	// number every time, nil for a check that passed.
	check func() []error
}

// expect is the byte volume a cell's sessions declared on one file. A
// negative read volume is not checked: MPI-IO data sieving reads file spans
// during writes.
type expect struct{ written, read int64 }

// run executes the cell and folds its measurements into the pass.
func (p *pass) run(cl cell) {
	t0 := time.Now()
	pl := cl.m.build(p)
	sw := &stopwatch{p: p}
	var rec *obs.Recorder
	if p.traced {
		rec = obs.NewRecorder(false)
	}
	tRun := time.Now()
	eng, err := mpi.Run(mpi.Config{
		Ranks:        cl.m.ranks(),
		RanksPerNode: cl.m.rpn,
		Fabric:       pl.fab,
		Recorder:     rec,
	}, func(c *mpi.Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			p.addCall("mpi.spawn", time.Since(tRun))
		}
		cl.body(c, pl, sw)
	})
	if !sw.zero.IsZero() {
		p.setup += sw.zero.Sub(t0)
		p.wall += sw.last.Sub(sw.zero)
	}

	var sessErr error
	switch {
	case err != nil:
		sessErr = err
	case sw.zero.IsZero():
		sessErr = fmt.Errorf("cell body never started its sessions")
	}
	var w counts
	for name, want := range cl.files {
		f := pl.sys.Lookup(name)
		if f == nil {
			if sessErr == nil {
				sessErr = fmt.Errorf("file %q was never created", name)
			}
			continue
		}
		if sessErr == nil && (f.BytesWritten() != want.written || want.read >= 0 && f.BytesRead() != want.read) {
			sessErr = fmt.Errorf("file %q: %d bytes written, %d read; sessions declared %d and %d",
				name, f.BytesWritten(), f.BytesRead(), want.written, want.read)
		}
		w.writeOps += f.WriteOps()
		w.readOps += f.ReadOps()
		w.bytesWritten += f.BytesWritten()
		w.bytesRead += f.BytesRead()
	}
	for i := 0; i < cl.sessions; i++ {
		p.op(cl.name, sessErr)
	}
	if cl.check != nil {
		for _, e := range cl.check() {
			if err != nil {
				e = err
			}
			p.op(cl.name+" check", e)
		}
	}

	w.transfers = pl.fab.Transfers()
	w.fabricMessages = pl.fab.FabricMessages()
	w.localTransfers = pl.fab.LocalTransfers()
	w.netBytes = pl.fab.TotalBytes()
	var vns int64
	if eng != nil {
		w.procs = int64(eng.NumProcs())
		vns = eng.Now()
	}
	p.work.add(w)
	p.digest = append(p.digest, cellDigest{Cell: cl.name, VirtualNs: vns, Transfers: w.transfers})
	if rec != nil {
		p.phases.Add(rec.PhaseTotals())
		p.retransmits += rec.Registry().Counter(fault.MetricNetRetransmits).Value()
	}
}

// timeHost runs a host-side library call outside any simulation (the tuner's
// search), charging its platform build to set-up and the call to wall time.
func (p *pass) timeHost(m machine, call string, fn func(pl *platform) error) {
	t0 := time.Now()
	pl := m.build(p)
	t1 := time.Now()
	err := fn(pl)
	d := time.Since(t1)
	p.setup += t1.Sub(t0)
	p.wall += d
	p.addCall(call, d)
	p.op(call, err)
}

// runtimeStats reads the process counters a pass reports as deltas.
type runtimeStats struct {
	allocBytes, gcCycles uint64
	cpu                  time.Duration
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF and a valid pointer
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF and a valid pointer
	// Linux reports maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}
