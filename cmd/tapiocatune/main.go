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
// simulations and run on a GOMAXPROCS-wide worker pool by default;
// -parallel=false runs them one at a time (the pick is identical).
// -verify additionally runs the tuned and default configurations end to end
// and reports both bandwidths.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"tapioca"
	"tapioca/internal/topology"
	"tapioca/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body over explicit arguments and output streams; it returns
// the exit code: 2 for a bad flag value, 1 for a failed tune or run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapiocatune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine   = fs.String("machine", "theta", "platform: theta or mira")
		nodes     = fs.Int("nodes", 128, "compute node count")
		rpn       = fs.Int("rpn", 16, "ranks per node")
		wl        = fs.String("workload", "ior", "workload: ior, hacc-aos, hacc-soa")
		mb        = fs.Float64("mb", 1, "per-rank data size in MB (ior)")
		particles = fs.Int64("particles", 25000, "particles per rank (hacc)")
		read      = fs.Bool("read", false, "tune a collective read instead of a write")
		probes    = fs.Int("probes", 0, "closed-loop probe count (0 = pure model)")
		burst     = fs.Bool("burst", false, "stack a burst-buffer staging tier on the machine")
		degraded  = fs.Bool("degraded", false, "tune for degraded mode: assume the burst-buffer tier is down and price against the tier behind it (implies -burst)")
		parallel  = fs.Bool("parallel", true, "run closed-loop probes on a worker pool (identical pick)")
		verify    = fs.Bool("verify", false, "run tuned vs default end to end")
		trace     = fs.String("trace", "", "write a Chrome trace-event flight recording of the tuned run to this file (implies -verify)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *machine != "theta" && *machine != "mira" {
		fmt.Fprintf(stderr, "tapiocatune: unknown -machine %q (want theta or mira)\n", *machine)
		return 2
	}

	if *trace != "" {
		*verify = true
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
		fmt.Fprintf(stderr, "tapiocatune: -nodes %d and -rpn %d must both be positive\n", *nodes, *rpn)
		return 2
	}
	if sizes := topology.MiraSizes(); *machine == "mira" && !slices.Contains(sizes, *nodes) {
		fmt.Fprintf(stderr, "tapiocatune: no Mira partition of -nodes %d (want one of %v)\n", *nodes, sizes)
		return 2
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
		fmt.Fprintf(stderr, "unknown workload %q\n", *wl)
		return 2
	}
	w.Read = *read

	var opts []tapioca.AutotuneOption
	if *probes > 0 {
		opts = append(opts, tapioca.WithProbes(*probes))
	}
	if *degraded {
		opts = append(opts, tapioca.WithDegraded())
	}
	if !*parallel {
		opts = append(opts, func(o *tune.Options) { o.Workers = 1 })
	}
	// TryAutotune plumbs -rpn through to the tuner's ranks-per-node density
	// (tune.Platform.RanksPerNode) and reports an infeasible rank/node/rpn
	// combination as an error instead of a panic.
	cfg, fopt, hints, err := tapioca.TryAutotune(m, w, opts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "Autotuned %s on %s (%d ranks, %d/node, %.2f MB/rank)\n\n",
		w.Name, m.Name(), ranks, *rpn, float64(w.TotalBytes())/float64(ranks)/(1<<20))
	fmt.Fprintf(stdout, "  Config       Aggregators=%d BufferSize=%dMB Placement=%s SingleBuffer=%v Shape=%s\n",
		cfg.Aggregators, cfg.BufferSize>>20, cfg.Placement.Name(), cfg.SingleBuffer, cfg.Shape())
	fmt.Fprintf(stdout, "  FileOptions  StripeCount=%d StripeSize=%dMB\n",
		fopt.StripeCount, fopt.StripeSize>>20)
	hintTree := "flat"
	if hints.Tree != nil {
		hintTree = hints.Tree.String()
	}
	fmt.Fprintf(stdout, "  Hints        CBNodes=%d CBBufferSize=%dMB Strategy=%s AlignDomains=%v CyclicDomains=%v Tree=%s\n",
		hints.CBNodes, hints.CBBufferSize>>20, hints.Strategy.Name(), hints.AlignDomains, hints.CyclicDomains, hintTree)

	if !*verify {
		return 0
	}
	measure := func(c tapioca.Config, fo tapioca.FileOptions, tracePath string) (float64, error) {
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
			return 0, err
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
				return 0, terr
			}
			fmt.Fprintf(stdout, "\n  trace: tuned run -> %s (open in https://ui.perfetto.dev)\n", tracePath)
		}
		return elapsed, nil
	}
	total := float64(w.TotalBytes())
	tuned, err := measure(cfg, fopt, *trace)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	def, err := measure(tapioca.Config{}, tapioca.FileOptions{}, "")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\n  verify: tuned %8.1f ms (%6.2f GB/s)   defaults %8.1f ms (%6.2f GB/s)   %.2fx\n",
		tuned*1e3, total/tuned/1e9, def*1e3, total/def/1e9, def/tuned)
	return 0
}

// must surfaces an I/O session error as a rank panic, which the simulation
// engine reports as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
