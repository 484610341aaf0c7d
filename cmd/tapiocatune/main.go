// Command tapiocatune runs the model-driven autotuner against a simulated
// platform and workload, printing the chosen TAPIOCA configuration,
// file-creation options and matching MPI-IO hints.
//
// Usage:
//
//	tapiocatune -machine theta -nodes 512 -rpn 16 -workload ior -mb 1
//	tapiocatune -machine mira -nodes 1024 -workload hacc-aos -particles 25000
//	tapiocatune -workload ior -probes 3 -verify
//
// -probes enables the closed-loop mode (short simulated probe rounds
// re-ground the model before the final pick); the probes are independent
// simulations and run on a bounded worker pool by default (-parallel).
// -verify additionally runs the tuned and default configurations end to end
// and reports both bandwidths.
package main

import (
	"flag"
	"fmt"
	"os"

	"tapioca"
	"tapioca/internal/par"
)

func main() {
	var (
		machine   = flag.String("machine", "theta", "platform: theta or mira")
		nodes     = flag.Int("nodes", 128, "compute node count")
		rpn       = flag.Int("rpn", 16, "ranks per node")
		wl        = flag.String("workload", "ior", "workload: ior, hacc-aos, hacc-soa")
		mb        = flag.Float64("mb", 1, "per-rank data size in MB (ior)")
		particles = flag.Int64("particles", 25000, "particles per rank (hacc)")
		read      = flag.Bool("read", false, "tune a collective read instead of a write")
		probes    = flag.Int("probes", 0, "closed-loop probe count (0 = pure model)")
		burst     = flag.Bool("burst", false, "stack a burst-buffer staging tier on the machine")
		degraded  = flag.Bool("degraded", false, "tune for degraded mode: assume the burst-buffer tier is down and price against the tier behind it (implies -burst)")
		parallel  = flag.Bool("parallel", true, "run closed-loop probes on a worker pool (identical pick)")
		verify    = flag.Bool("verify", false, "run tuned vs default end to end")
		trace     = flag.String("trace", "", "write a Chrome trace-event flight recording of the tuned run to this file (implies -verify)")
	)
	flag.Parse()

	if *trace != "" {
		*verify = true
	}

	if !*parallel {
		par.SetLimit(1)
	}

	if *degraded {
		*burst = true
	}
	build := func() *tapioca.Machine {
		var mo []tapioca.MachineOption
		if *burst {
			mo = append(mo, tapioca.WithBurstBuffer(tapioca.BurstBufferConfig{}))
		}
		if *machine == "mira" {
			return tapioca.Mira(*nodes, append(mo, tapioca.WithLockSharing())...)
		}
		return tapioca.Theta(*nodes, mo...)
	}
	if *nodes < 1 || *rpn < 1 {
		fmt.Fprintf(os.Stderr, "tapiocatune: -nodes %d and -rpn %d must both be positive\n", *nodes, *rpn)
		os.Exit(2)
	}
	m := build()
	ranks := *nodes * *rpn

	var w tapioca.Workload
	switch *wl {
	case "ior":
		w = tapioca.IORWorkload(ranks, int64(*mb*(1<<20)))
	case "hacc-aos":
		w = tapioca.HACCWorkload(ranks, *particles, true)
	case "hacc-soa":
		w = tapioca.HACCWorkload(ranks, *particles, false)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	w.Read = *read

	var opts []tapioca.AutotuneOption
	if *probes > 0 {
		opts = append(opts, tapioca.WithProbes(*probes))
	}
	if *degraded {
		opts = append(opts, tapioca.WithDegraded())
	}
	// TryAutotune plumbs -rpn through to the tuner's ranks-per-node density
	// (tune.Platform.RanksPerNode) and reports an infeasible rank/node/rpn
	// combination as an error instead of a panic.
	cfg, fopt, hints, err := tapioca.TryAutotune(m, w, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Autotuned %s on %s (%d ranks, %d/node, %.2f MB/rank)\n\n",
		w.Name, m.Name(), ranks, *rpn, float64(w.TotalBytes())/float64(ranks)/(1<<20))
	fmt.Printf("  Config       Aggregators=%d BufferSize=%dMB Placement=%s SingleBuffer=%v Shape=%s\n",
		cfg.Aggregators, cfg.BufferSize>>20, cfg.Placement.Name(), cfg.SingleBuffer, cfg.Shape())
	fmt.Printf("  FileOptions  StripeCount=%d StripeSize=%dMB\n",
		fopt.StripeCount, fopt.StripeSize>>20)
	fmt.Printf("  Hints        CBNodes=%d CBBufferSize=%dMB Strategy=%s AlignDomains=%v CyclicDomains=%v TreePlan=%q\n",
		hints.CBNodes, hints.CBBufferSize>>20, hints.Strategy.Name(), hints.AlignDomains, hints.CyclicDomains, hints.TreePlan)

	if !*verify {
		return
	}
	run := func(c tapioca.Config, fo tapioca.FileOptions, tracePath string) float64 {
		vm := build()
		if tracePath != "" {
			vm.EnableTracing()
		}
		var elapsed float64
		_, err := vm.Run(*rpn, func(ctx *tapioca.Ctx) {
			f := ctx.CreateFile("verify", fo)
			wr := ctx.Tapioca(f, c)
			decl := w.Declared(ctx.Rank(), ctx.Size())
			ctx.Barrier()
			t0 := ctx.Now()
			must(wr.Init(decl))
			if w.Read {
				must(wr.ReadAll())
			} else {
				must(wr.WriteAll())
			}
			ctx.Barrier()
			if ctx.Rank() == 0 {
				elapsed = ctx.Now() - t0
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if tracePath != "" {
			tf, terr := os.Create(tracePath)
			if terr == nil {
				terr = vm.WriteTrace(tf)
				if cerr := tf.Close(); terr == nil {
					terr = cerr
				}
			}
			if terr != nil {
				fmt.Fprintln(os.Stderr, terr)
				os.Exit(1)
			}
			fmt.Printf("\n  trace: tuned run -> %s (open in https://ui.perfetto.dev)\n", tracePath)
		}
		return elapsed
	}
	total := float64(w.TotalBytes())
	tuned := run(cfg, fopt, *trace)
	def := run(tapioca.Config{}, tapioca.FileOptions{}, "")
	fmt.Printf("\n  verify: tuned %8.1f ms (%6.2f GB/s)   defaults %8.1f ms (%6.2f GB/s)   %.2fx\n",
		tuned*1e3, total/tuned/1e9, def*1e3, total/def/1e9, def/tuned)
}

// must surfaces an I/O session error as a rank panic, which the simulation
// engine reports as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
