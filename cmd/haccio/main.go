// Command haccio runs the HACC-IO kernel (paper §V-D) on a simulated
// machine: 9 particle variables, 38 bytes per particle, AoS or SoA layout.
//
// Usage:
//
//	haccio -machine theta -nodes 128 -particles 25000 -layout aos -method tapioca
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tapioca"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body over explicit arguments and output streams; it returns
// the exit code: 2 for a bad flag value, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haccio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine     = fs.String("machine", "theta", "theta or mira")
		nodes       = fs.Int("nodes", 128, "compute nodes")
		rpn         = fs.Int("rpn", 4, "ranks per node")
		particles   = fs.Int64("particles", 25000, "particles per rank")
		layout      = fs.String("layout", "aos", "aos or soa")
		method      = fs.String("method", "tapioca", "tapioca or mpiio")
		aggregators = fs.Int("aggregators", 0, "aggregators / cb_nodes (0 = default)")
		buffer      = fs.Int64("buffer", 16<<20, "aggregation buffer bytes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct{ name, val, a, b string }{
		{"machine", *machine, "theta", "mira"},
		{"layout", *layout, "aos", "soa"},
		{"method", *method, "tapioca", "mpiio"},
	} {
		if f.val != f.a && f.val != f.b {
			fmt.Fprintf(stderr, "haccio: unknown -%s %q (want %s or %s)\n", f.name, f.val, f.a, f.b)
			return 2
		}
	}

	var m *tapioca.Machine
	opt := tapioca.FileOptions{}
	subfile := false
	if *machine == "mira" {
		m = tapioca.Mira(*nodes, tapioca.WithLockSharing())
		subfile = true // file per Pset, the paper's Mira setup
	} else {
		m = tapioca.Theta(*nodes)
		opt = tapioca.FileOptions{StripeCount: 12, StripeSize: 16 << 20}
	}
	hacc := tapioca.HACCWorkload(*nodes**rpn, *particles, *layout == "aos")

	var elapsed float64
	_, err := m.Run(*rpn, func(ctx *tapioca.Ctx) {
		group := ctx
		name := "hacc"
		if subfile {
			pset := ctx.Pset()
			group = ctx.Split(pset, ctx.Rank())
			name = fmt.Sprintf("hacc-pset%d", pset)
		}
		f := ctx.CreateFile(name, opt)
		decl := hacc.Declared(group.Rank(), group.Size())
		ctx.Barrier()
		t0 := ctx.Now()
		if *method == "tapioca" {
			w := group.Tapioca(f, tapioca.Config{Aggregators: *aggregators, BufferSize: *buffer})
			must(w.Init(decl))
			must(w.WriteAll())
		} else {
			fh := group.MPIIO(f, tapioca.Hints{CBNodes: *aggregators, CBBufferSize: *buffer, AlignDomains: true})
			for _, segs := range decl {
				must(fh.WriteAtAll(segs))
			}
			fh.Close()
		}
		ctx.Barrier()
		if ctx.Rank() == 0 {
			elapsed = ctx.Now() - t0
		}
	})
	if err != nil {
		fmt.Fprintf(stderr, "haccio: %v\n", err)
		return 1
	}
	total := float64(hacc.TotalBytes())
	fmt.Fprintf(stdout, "%s %s HACC-IO on %s: %d ranks × %d particles = %.2f GB in %.3f s → %.3f GB/s\n",
		*method, *layout, m.Name(), *nodes**rpn, *particles, total/1e9, elapsed, total/elapsed/1e9)
	return 0
}

// must surfaces an I/O session error as a rank panic, which the simulation
// engine reports as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
