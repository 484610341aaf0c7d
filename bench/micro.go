package main

import (
	"math"
	"math/rand/v2"
	"time"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/dataplane"
	"tapioca/internal/mpi"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// Each micro-benchmark times one layer's hot call on inputs taken from the
// workload's own platform and pattern. Every call is repeated until one
// timing covers a minimum duration (microMin outside the self-test), and the
// median of microReps timings is reported.
const (
	microMin  = 20 * time.Millisecond
	microReps = 5
)

// perOp returns the median nanoseconds per operation of fn(n), with n grown
// until one call takes at least minTime.
func perOp(minTime time.Duration, fn func(n int) error) (float64, error) {
	n := 1
	for {
		t := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		if d := time.Since(t); d >= minTime || n >= 1<<30 {
			break
		}
		n *= 2
	}
	xs := make([]float64, microReps)
	for i := range xs {
		t := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return medianOf(xs), nil
}

// microBenchmarks runs the layer micro-benchmarks on the workload's inputs.
func microBenchmarks(mi microInputs, minTime time.Duration) (map[string]metric, error) {
	ms := map[string]metric{}
	p := newPass(false)
	pl := mi.m.build(p)
	cfg := mi.cfg
	model := cost.MachineModel(pl.dist, pl.sys)
	nodeOf := func(r int) int { return r / mi.m.rpn }

	// Node pairs spread over the machine, as the netsim benchmarks use.
	nodes := mi.m.nodes
	pairs := make([][2]int, 64)
	for i := range pairs {
		src, dst := (i*97)%nodes, (i*193+nodes/2)%nodes
		if dst == src {
			dst = (dst + 1) % nodes
		}
		pairs[i] = [2]int{src, dst}
	}

	// One partition's members, as core's election sees them.
	var all [][]storage.Seg
	for _, decl := range mi.decl {
		var flat []storage.Seg
		for _, segs := range decl {
			flat = append(flat, segs...)
		}
		all = append(all, flat)
	}
	est := core.EstimatePlan(all, cfg, pl.sys.OptimalUnit(pl.sys.Create("micro", mi.fopt)))
	parts := make([]tree.Partition, len(est.Parts))
	for i, pe := range est.Parts {
		members := make([]cost.Member, pe.Ranks)
		for j := range members {
			members[j] = cost.Member{Node: nodeOf(pe.FirstRank + j), Bytes: pe.MemberBytes[j]}
		}
		parts[i] = tree.Partition{Members: members}
	}
	part0 := parts[0].Members
	ioBytes := est.Parts[0].Bytes

	// Rank 0's payload for the gather, and 32 MiB of bytes for the CRC.
	payload := workload.FillData(mi.decl[0], 1)
	plane, err := dataplane.New(mi.decl[0], payload)
	if err != nil {
		return nil, err
	}
	gatherDst := make([]byte, plane.Bytes())
	crcBuf := make([]byte, 32<<20)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range crcBuf {
		crcBuf[i] = byte(rng.Uint32())
	}

	// Converters from nanoseconds per op to the reported value.
	per := func(k float64) func(float64) float64 { return func(ns float64) float64 { return ns * k } }
	gbps := func(bytes int64) func(float64) float64 {
		return func(ns float64) float64 { return float64(bytes) / ns }
	}
	benches := []struct {
		name, unit string
		report     func(nsPerOp float64) float64
		fn         func(n int) error
	}{
		{"sim.hold_ns", "ns", per(1), func(n int) error {
			e := sim.NewEngine()
			e.Spawn("stepper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Hold(1)
				}
			})
			// A proc far in the future keeps the run queue non-empty, so
			// Hold pays its real cost, a heap peek.
			e.Spawn("horizon", func(p *sim.Proc) { p.HoldUntil(int64(n) + 1<<40) })
			return e.Run()
		}},
		{"sim.handoff_ns", "ns", per(0.5), func(n int) error {
			// Two procs alternate through Park/Unpark: two handoffs per op.
			e := sim.NewEngine()
			var ping, pong *sim.Proc
			ping = e.Spawn("ping", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Park("ping")
					e.Unpark(pong, p.Now())
				}
			})
			pong = e.Spawn("pong", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					e.Unpark(ping, p.Now())
					p.Park("pong")
				}
			})
			return e.Run()
		}},
		{"netsim.reserve_ns", "ns", per(1), func(n int) error {
			for i := 0; i < n; i++ {
				pr := pairs[i%len(pairs)]
				pl.fab.Reserve(0, pr[0], pr[1], 4096)
			}
			return nil
		}},
		{"topology.distance_ns", "ns", per(1), func(n int) error {
			for i := 0; i < n; i++ {
				pr := pairs[i%len(pairs)]
				pl.topo.Distance(pr[0], pr[1])
			}
			return nil
		}},
		{"topology.distance_cached_ns", "ns", per(1), func(n int) error {
			for i := 0; i < n; i++ {
				pr := pairs[i%len(pairs)]
				pl.dist.Distance(pr[0], pr[1])
			}
			return nil
		}},
		{"cost.election_us", "us", per(1e-3), func(n int) error {
			// One partition's election: every member's C1+C2 candidacy.
			for i := 0; i < n; i++ {
				best := math.Inf(1)
				for cand := range part0 {
					best = math.Min(best, model.CandidacyCost(part0, cand, ioBytes))
				}
			}
			return nil
		}},
		{"core.estimate_ms", "ms", per(1e-6), func(n int) error {
			for i := 0; i < n; i++ {
				core.EstimatePlan(all, cfg, pl.sys.OptimalUnit(pl.sys.Lookup("micro")))
			}
			return nil
		}},
		{"tree.search_ms", "ms", per(1e-6), func(n int) error {
			opt := tree.SearchOptions{Price: tree.PriceOptions{PerMessageSeconds: lossRate * retransmitRTO * 1e-9}}
			for i := 0; i < n; i++ {
				tree.Search(model, parts, tree.GrouperOf(pl.topo), opt)
			}
			return nil
		}},
		{"storage.crc_gbps", "GB/s", gbps(int64(len(crcBuf))), func(n int) error {
			for i := 0; i < n; i++ {
				storage.CRC64(0, crcBuf)
			}
			return nil
		}},
		{"dataplane.gather_gbps", "GB/s", gbps(plane.Bytes()), func(n int) error {
			for i := 0; i < n; i++ {
				plane.Gather(gatherDst, 0, math.MaxInt64)
			}
			return nil
		}},
	}
	for _, b := range benches {
		ns, err := perOp(minTime, b.fn)
		if err != nil {
			return nil, err
		}
		ms[b.name] = metric{b.report(ns), b.unit}
	}

	us, err := barrierMicros(mi, pl)
	if err != nil {
		return nil, err
	}
	ms["mpi.barrier_us"] = metric{us, "us"}
	return ms, nil
}

// barrierMicros times a world Barrier across the workload's ranks: the
// median over microReps jobs of the host time per barrier, stamped by rank 0
// between its first and last of barrierRounds barriers.
func barrierMicros(mi microInputs, pl *platform) (float64, error) {
	const barrierRounds = 20
	xs := make([]float64, microReps)
	for i := range xs {
		var t0, t1 time.Time
		_, err := mpi.Run(mpi.Config{Ranks: mi.m.ranks(), RanksPerNode: mi.m.rpn, Fabric: pl.fab}, func(c *mpi.Comm) {
			c.Barrier()
			if c.Rank() == 0 {
				t0 = time.Now()
			}
			for k := 0; k < barrierRounds; k++ {
				c.Barrier()
			}
			if c.Rank() == 0 {
				t1 = time.Now()
			}
		})
		if err != nil {
			return 0, err
		}
		xs[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3 / barrierRounds
	}
	return medianOf(xs), nil
}
