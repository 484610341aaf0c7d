// Command iorsim runs an IOR-style collective I/O benchmark on a simulated
// machine, in the spirit of the paper's §V-B tuning studies.
//
// Usage:
//
//	iorsim -machine theta -nodes 128 -rpn 4 -size 1048576 \
//	       -stripe-count 12 -stripe-size 8388608 -method tapioca -read
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
	fs := flag.NewFlagSet("iorsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine     = fs.String("machine", "theta", "theta or mira")
		nodes       = fs.Int("nodes", 128, "compute nodes")
		rpn         = fs.Int("rpn", 4, "ranks per node")
		size        = fs.Int64("size", 1<<20, "bytes per rank")
		method      = fs.String("method", "tapioca", "tapioca or mpiio")
		aggregators = fs.Int("aggregators", 0, "aggregators / cb_nodes (0 = default)")
		buffer      = fs.Int64("buffer", 8<<20, "aggregation buffer bytes")
		stripeCount = fs.Int("stripe-count", 12, "Lustre stripe count (theta)")
		stripeSize  = fs.Int64("stripe-size", 8<<20, "Lustre stripe size (theta)")
		lockShared  = fs.Bool("lock-sharing", true, "GPFS shared locks (mira)")
		read        = fs.Bool("read", false, "measure reads instead of writes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *method != "tapioca" && *method != "mpiio" {
		fmt.Fprintf(stderr, "iorsim: unknown -method %q (want tapioca or mpiio)\n", *method)
		return 2
	}

	var m *tapioca.Machine
	opt := tapioca.FileOptions{}
	switch *machine {
	case "mira":
		var mo []tapioca.MachineOption
		if *lockShared {
			mo = append(mo, tapioca.WithLockSharing())
		}
		m = tapioca.Mira(*nodes, mo...)
	case "theta":
		m = tapioca.Theta(*nodes)
		opt = tapioca.FileOptions{StripeCount: *stripeCount, StripeSize: *stripeSize}
	default:
		fmt.Fprintf(stderr, "iorsim: unknown -machine %q (want theta or mira)\n", *machine)
		return 2
	}

	var elapsed float64
	_, err := m.Run(*rpn, func(ctx *tapioca.Ctx) {
		f := ctx.CreateFile("ior", opt)
		segs := [][]tapioca.Seg{{tapioca.Contig(int64(ctx.Rank())**size, *size)}}
		ctx.Barrier()
		t0 := ctx.Now()
		if *method == "tapioca" {
			w := ctx.Tapioca(f, tapioca.Config{Aggregators: *aggregators, BufferSize: *buffer})
			must(w.Init(segs))
			if *read {
				must(w.ReadAll())
			} else {
				must(w.WriteAll())
			}
		} else {
			fh := ctx.MPIIO(f, tapioca.Hints{CBNodes: *aggregators, CBBufferSize: *buffer, AlignDomains: true})
			if *read {
				must(fh.ReadAtAll(segs[0]))
			} else {
				must(fh.WriteAtAll(segs[0]))
			}
			fh.Close()
		}
		ctx.Barrier()
		if ctx.Rank() == 0 {
			elapsed = ctx.Now() - t0
		}
	})
	if err != nil {
		fmt.Fprintf(stderr, "iorsim: %v\n", err)
		return 1
	}
	total := float64(int64(*nodes**rpn) * *size)
	op := "write"
	if *read {
		op = "read"
	}
	fmt.Fprintf(stdout, "%s %s on %s: %d ranks × %d B = %.2f GB in %.3f s → %.3f GB/s\n",
		*method, op, m.Name(), *nodes**rpn, *size, total/1e9, elapsed, total/elapsed/1e9)
	return 0
}

// must surfaces an I/O session error as a rank panic, which the simulation
// engine reports as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
