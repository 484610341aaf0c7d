package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagValues: an unknown machine, a node count with no partition
// and a node index outside the machine each exit 2 with a message, before
// printing anything.
func TestBadFlagValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-from", "-1"}, "-from -1 out of range [0,512)"},
		{[]string{"-to", "512"}, "-to 512 out of range [0,512)"},
		{[]string{"-machine", "theta", "-to", "-3"}, "-to -3 out of range [0,796)"},
		{[]string{"-nodes", "100"}, "no Mira partition of -nodes 100"},
		{[]string{"-nodes", "0"}, "no Mira partition of -nodes 0"},
		{[]string{"-machine", "theta", "-nodes", "-5"}, "-nodes -5 must be positive"},
		{[]string{"-machine", "theta", "-nodes", "0"}, "-nodes 0 must be positive"},
		{[]string{"-machine", "bogus"}, `unknown -machine "bogus"`},
		{[]string{"-machine", "Mira"}, `unknown -machine "Mira"`},
		{[]string{"-nodes", "many"}, `invalid value "many" for flag -nodes`},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", tc.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stdout %q, stderr %q; want stderr to contain %q", tc.args, out.String(), errOut.String(), tc.want)
		}
	}
}

// TestValidRunsOutput pins the full report of valid runs on both machines.
func TestValidRunsOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, `topology: bgq-torus5d-512
nodes:    512 (dimensions [4 4 4 4 2])
I/O nodes: 4, per-hop latency 690 ns
bandwidth[injection] = 3.60 GB/s
bandwidth[fabric] = 1.80 GB/s
bandwidth[io-uplink] = 1.80 GB/s
bandwidth[storage] = 2.80 GB/s

node 0: coordinates [0 0 0 0 0], ION/Pset 0 (distance 1)
node 1: coordinates [0 0 0 0 1]
distance 1 hops, route 1 links, bottleneck 1.80 GB/s

Psets (128 nodes each):
  pset 0: nodes [0,128), bridges 0 and 64
  pset 1: nodes [128,256), bridges 128 and 192
  pset 2: nodes [256,384), bridges 256 and 320
  pset 3: nodes [384,512), bridges 384 and 448
`},
		{[]string{"-machine", "theta", "-nodes", "128", "-from", "3", "-to", "100"}, `topology: xc40-dragonfly-g1
nodes:    412 (dimensions [1 6 16 4])
I/O nodes: 28, per-hop latency 850 ns
bandwidth[injection] = 10.00 GB/s
bandwidth[fabric] = 14.00 GB/s
bandwidth[io-uplink] = 12.50 GB/s
bandwidth[storage] = 7.00 GB/s

node 3: coordinates [0 0 0 3], ION locality hidden (C2 = 0, as on Theta)
node 100: coordinates [0 1 9 0]
distance 4 hops, route 4 links, bottleneck 10.00 GB/s

dragonfly: 1 groups × 6×16 routers × 4 nodes, 28 LNET service nodes
`},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 0 || errOut.Len() != 0 {
			t.Errorf("%v exited %d, stderr %q", tc.args, code, errOut.String())
		}
		if out.String() != tc.want {
			t.Errorf("%v printed\n%s\nwant\n%s", tc.args, out.String(), tc.want)
		}
	}
}
