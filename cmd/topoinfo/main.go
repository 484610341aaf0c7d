// Command topoinfo inspects the simulated interconnect topologies: node
// coordinates, distances, routes, Pset/bridge structure (BG/Q) and
// group/router structure (dragonfly).
//
// Usage:
//
//	topoinfo -machine mira -nodes 512 -from 0 -to 200
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"tapioca/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body over explicit arguments and output streams; it returns
// the exit code: 2 for a bad flag value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine = fs.String("machine", "mira", "mira or theta")
		nodes   = fs.Int("nodes", 512, "compute nodes")
		from    = fs.Int("from", 0, "source node")
		to      = fs.Int("to", 1, "destination node")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "topoinfo: "+format+"\n", a...)
		return 2
	}

	var topo topology.Topology
	switch *machine {
	case "mira":
		if sizes := topology.MiraSizes(); !slices.Contains(sizes, *nodes) {
			return usage("no Mira partition of -nodes %d (want one of %v)", *nodes, sizes)
		}
		topo = topology.MiraTorus(*nodes)
	case "theta":
		if *nodes <= 0 {
			return usage("-nodes %d must be positive", *nodes)
		}
		topo = topology.ThetaDragonfly(*nodes, topology.RouteMinimal)
	default:
		return usage("unknown -machine %q (want mira or theta)", *machine)
	}
	for _, n := range []struct {
		flag string
		node int
	}{{"from", *from}, {"to", *to}} {
		if n.node < 0 || n.node >= topo.Nodes() {
			return usage("-%s %d out of range [0,%d)", n.flag, n.node, topo.Nodes())
		}
	}

	fmt.Fprintf(stdout, "topology: %s\n", topo.Name())
	fmt.Fprintf(stdout, "nodes:    %d (dimensions %v)\n", topo.Nodes(), topo.Dimensions())
	fmt.Fprintf(stdout, "I/O nodes: %d, per-hop latency %d ns\n", topo.IONodes(), topo.Latency())
	for lvl, name := range []string{"injection", "fabric", "io-uplink", "storage"} {
		fmt.Fprintf(stdout, "bandwidth[%s] = %.2f GB/s\n", name, topo.Bandwidth(lvl)/1e9)
	}

	fmt.Fprintf(stdout, "\nnode %d: coordinates %v", *from, topo.Coordinates(*from))
	if ion := topo.IONodeOf(*from); ion != topology.IONUnknown {
		fmt.Fprintf(stdout, ", ION/Pset %d (distance %d)", ion, topo.DistanceToION(*from, ion))
	} else {
		fmt.Fprintf(stdout, ", ION locality hidden (C2 = 0, as on Theta)")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "node %d: coordinates %v\n", *to, topo.Coordinates(*to))
	hops, bw := topology.PathInfo(topo, *from, *to)
	fmt.Fprintf(stdout, "distance %d hops, route %d links, bottleneck %.2f GB/s\n",
		topo.Distance(*from, *to), hops, bw/1e9)

	if tor, ok := topo.(*topology.Torus5D); ok {
		fmt.Fprintf(stdout, "\nPsets (%d nodes each):\n", tor.PsetSize)
		for p := 0; p < tor.IONodes() && p < 8; p++ {
			br := tor.BridgeNodes(p)
			fmt.Fprintf(stdout, "  pset %d: nodes [%d,%d), bridges %d and %d\n",
				p, p*tor.PsetSize, (p+1)*tor.PsetSize, br[0], br[1])
		}
	}
	if d, ok := topo.(*topology.Dragonfly); ok {
		fmt.Fprintf(stdout, "\ndragonfly: %d groups × %d×%d routers × %d nodes, %d LNET service nodes\n",
			d.Groups, d.Rows, d.Cols, d.NodesPerRouter, d.ServiceNodes)
	}
	return 0
}
