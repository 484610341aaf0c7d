package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMachineFlag: -machine names one of the two presets exactly; anything
// else, a different case or a typo, exits 2 before tuning instead of
// silently tuning Theta.
func TestMachineFlag(t *testing.T) {
	for _, m := range []string{"bogus", "Mira", "THETA", "mira ", ""} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-machine", m}, &out, &errOut); code != 2 {
			t.Errorf("-machine %q exited %d, want 2", m, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "unknown -machine") {
			t.Errorf("-machine %q: stdout %q, stderr %q", m, out.String(), errOut.String())
		}
	}
	for _, tc := range []struct{ machine, nodes, want string }{
		{"mira", "128", " on mira-128 "},
		{"theta", "8", " on theta-8 "},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"-machine", tc.machine, "-nodes", tc.nodes, "-rpn", "1", "-mb", "0.0625"}, &out, &errOut)
		if code != 0 || !strings.Contains(out.String(), tc.want) {
			t.Errorf("-machine %s exited %d: stdout %q, stderr %q", tc.machine, code, out.String(), errOut.String())
		}
	}
}

// TestWorkloadFlag: an unknown -workload exits 2, as an unknown -machine does.
func TestWorkloadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "hacc"}, &out, &errOut); code != 2 {
		t.Fatalf("-workload hacc exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Fatalf("stderr %q", errOut.String())
	}
}

// TestMiraNodesFlag: a -nodes count with no Mira partition shape exits 2
// with one usage line, not a panic from the machine constructor.
func TestMiraNodesFlag(t *testing.T) {
	for _, n := range []string{"64", "100", "3000"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-machine", "mira", "-nodes", n}, &out, &errOut)
		msg := errOut.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, "no Mira partition of -nodes "+n) ||
			strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
			t.Errorf("-machine mira -nodes %s exited %d: stdout %q, stderr %q", n, code, out.String(), msg)
		}
	}
}
