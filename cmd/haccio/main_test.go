package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownFlagValues: -machine, -layout and -method each name one of two
// values exactly; anything else exits 2 before running instead of silently
// running the other choice under the requested label.
func TestUnknownFlagValues(t *testing.T) {
	for _, tc := range []struct{ flag, val string }{
		{"-machine", "Mira"}, {"-machine", "bogus"},
		{"-layout", "AoS"}, {"-layout", ""},
		{"-method", "TAPIOCA"}, {"-method", "mpi-io"},
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{tc.flag, tc.val}, &out, &errOut); code != 2 {
			t.Errorf("%s %q exited %d, want 2", tc.flag, tc.val, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "unknown "+tc.flag) {
			t.Errorf("%s %q: stdout %q, stderr %q", tc.flag, tc.val, out.String(), errOut.String())
		}
	}
}

// TestRunLabelsWhatRan: valid flag values run and the report names them,
// with the HACC volume of 38 bytes per particle.
func TestRunLabelsWhatRan(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "8", "-rpn", "1", "-particles", "1000"},
			"tapioca aos HACC-IO on theta-8: 8 ranks × 1000 particles = 0.00 GB"},
		{[]string{"-nodes", "8", "-rpn", "1", "-particles", "1000", "-layout", "soa", "-method", "mpiio"},
			"mpiio soa HACC-IO on theta-8: 8 ranks × 1000 particles = 0.00 GB"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 0 || !strings.HasPrefix(out.String(), tc.want) {
			t.Errorf("%v exited %d: stdout %q, stderr %q", tc.args, code, out.String(), errOut.String())
		}
	}
}
