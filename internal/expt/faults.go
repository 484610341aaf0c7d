package expt

import (
	"fmt"
	"strings"

	"tapioca/internal/core"
	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/par"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// CellError wraps a measurement-cell failure with the cell's shape, so a
// grid run reports which simulation died (watchdog, deadlock, session error)
// instead of hanging or printing a bare engine error.
type CellError struct {
	Nodes, Ranks int
	Err          error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("expt: measurement cell (%d nodes, %d ranks) failed: %v", e.Nodes, e.Ranks, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// armFaults attaches the Env's fault plan (if any) to a fresh rig: one plan
// per cell, so plan state (op counters, consumed-once corruption keys) never
// crosses cells and parallel grids stay deterministic.
func armFaults(r *rig) *rig {
	cfg := r.env.Faults
	if cfg == nil || !cfg.Enabled() {
		return r
	}
	plan := fault.NewPlan(*cfg)
	r.fplan = plan
	r.fab.SetFaults(plan)
	r.sys = storage.NewFaulty(r.sys, plan)
	return r
}

// Chaos lists the fault-injection experiments. They are registered for
// -experiment/-list but excluded from All(): "tapiocabench all" output stays
// byte-identical to a zero-fault build.
func Chaos() []Spec {
	return []Spec{
		{"abl-faults", "Chaos: goodput vs fault rate, with and without recovery", AblationFaults},
	}
}

// chaosRig builds the chaos platform: a burst-buffer staging tier over
// Lustre on a Theta dragonfly — the stack with a degraded-mode story (buffer
// down ⇒ direct-to-PFS).
func chaosRig(env Env, nodes, rpn, numOST int) *rig {
	topo, dc := sharedTheta(nodes, topology.RouteMinimal)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	fab.ShareDistances(dc)
	lustre := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: numOST})
	sys := storage.NewBurstBuffer(lustre, storage.BurstBufferConfig{})
	return armFaults(&rig{env: env, topo: topo, fab: fab, sys: sys, nodes: nodes, rpn: rpn})
}

// chaosOut is one chaos cell's measurements.
type chaosOut struct {
	goodput float64 // (bytes landed)/(elapsed), GB/s
	p99     float64 // p99 round latency, seconds (0 at rate 0)
	lost    int64   // bytes absorbed as data loss
	events  map[string]int64
}

// chaosCell runs one fault-rate × recovery-mode measurement: an IOR write
// through the full pipeline on a fresh chaos rig, under its own deterministic
// fault plan.
func chaosCell(env Env, nodes, rpn, numOST int, rate float64, withRec bool) chaosOut {
	const seed = 0x7A910CA
	// The cell arms its own plan in place of any run-wide profile.
	env.Faults = nil
	if rate > 0 {
		fc := fault.Profile(seed, rate)
		// Take the buffer tier down mid-run (the short cells finish in about
		// 20 ms of virtual time) so the degraded-mode path (or, without
		// recovery, counted data loss) is exercised every cell.
		fc.TierDownAfter = 10 * sim.Millisecond
		if !withRec {
			// A dead aggregator without failover deadlocks its partition by
			// design (the engine diagnoses it); the no-recovery goodput series
			// must still complete, so deaths stay off and the series absorbs
			// every other fault class.
			fc.AggrDeathRate = 0
		}
		env.Faults = &fc
	}
	r := chaosRig(env, nodes, rpn, numOST)
	// The chaos figure always records: round-latency percentiles and
	// recovery counters are half its point. (Virtual time is unaffected.)
	r.record = true

	pattern := workload.IOR(r.ranks(), 1<<20)
	var total, lost int64
	elapsed, err := r.run(func(c *mpi.Comm, tm *timer) {
		decl := pattern.Declared(c.Rank(), c.Size())
		var mine int64
		for _, segs := range decl {
			mine += storage.TotalBytes(segs)
		}
		sum := c.AllreduceI64(mpi.OpSum, mine)
		f := openShared(c, r.sys, "chaos", storage.FileOptions{StripeCount: numOST, StripeSize: 1 << 20})
		cfg := core.Config{Aggregators: 8, BufferSize: 1 << 20, Faults: r.fplan, Recovery: withRec && r.fplan != nil}
		w := core.New(c, r.sys, f, cfg)
		tm.Start(c)
		must(w.Init(decl))
		must(w.WriteAll())
		tm.Stop(c)
		lostSum := c.AllreduceI64(mpi.OpSum, w.Stats().LostBytes)
		if c.Rank() == 0 {
			total, lost = sum, lostSum
		}
	})
	must(err)

	snap := r.rec.Registry().Snapshot()
	events := map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fault.") || strings.HasPrefix(name, "recovery.") {
			events[name] = v
		}
	}
	return chaosOut{
		goodput: gbps(total-lost, elapsed),
		p99:     snap.Histograms["tapioca.round_seconds"].P99,
		lost:    lost,
		events:  events,
	}
}

// AblationFaults is the chaos experiment: goodput (bytes that actually
// landed over elapsed time) against fault rate, with recovery disarmed vs
// armed, plus p99 round latency and recovery-event totals in the notes. All
// fault schedules are pure functions of (seed, virtual time), so the figure
// is deterministic, serial or parallel.
func AblationFaults(env Env) Result {
	nodes, rpn, osts := 32, 4, 8
	if env.Full {
		nodes, rpn = 64, 8
	}
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
	if env.Short {
		rates = []float64{0, 0.1}
	}
	res := Result{
		ID:     "abl-faults",
		Title:  "Chaos: goodput vs fault rate, with and without recovery",
		XLabel: "fault rate",
		Labels: []string{"no recovery", "with recovery"},
		Notes: []string{
			fmt.Sprintf("IOR 1 MB/rank on Theta, burst buffer over Lustre, %d nodes x %d ranks; buffer tier down at 10 ms", nodes, rpn),
			"goodput = bytes landed (total minus lost) / elapsed; fault schedules are pure (seed, virtual time)",
		},
	}
	cells := make([]chaosOut, len(rates)*2)
	par.Map(env.Width(), len(cells), func(i int) {
		cells[i] = chaosCell(env, nodes, rpn, osts, rates[i/2], i%2 == 1)
	})
	for i, rate := range rates {
		no, with := cells[2*i], cells[2*i+1]
		res.Rows = append(res.Rows, Row{X: rate, Values: []float64{no.goodput, with.goodput}})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"rate %.2f: p99 round %.2f/%.2f ms (no rec/rec), lost %d/%d MB, retries %d, failovers %d, replayed %d, degraded %d, repaired %d",
			rate, no.p99*1e3, with.p99*1e3, no.lost>>20, with.lost>>20,
			with.events[fault.MetricRetries], with.events[fault.MetricFailovers],
			with.events[fault.MetricReplayedRounds], with.events[fault.MetricDegradedRounds],
			with.events[fault.MetricRepairedExtents]))
	}
	return res
}
