package main

import (
	"math"
	"strings"
	"testing"
)

// TestParseFaultsRejectsNonFinite: a NaN or infinite rate must not slip past
// the range check and run a fault-armed sweep at an undefined rate.
func TestParseFaultsRejectsNonFinite(t *testing.T) {
	for _, s := range []string{"7,NaN", "7,nan", "7,+Inf", "7,-Inf", "7,inf", "7,-0.1", "7,1.5", "7", "x,0.1", "7,0.1,2"} {
		if seed, rate, err := parseFaults(s); err == nil {
			t.Errorf("parseFaults(%q) = %d, %g, want an error", s, seed, rate)
		}
	}
	seed, rate, err := parseFaults(" 7 , 0.05 ")
	if err != nil || seed != 7 || rate != 0.05 {
		t.Fatalf("parseFaults(\" 7 , 0.05 \") = %d, %g, %v", seed, rate, err)
	}
}

// FuzzParseFaults: every accepted "seed,rate" carries a rate in [0, 1].
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{"7,0.05", "0,0", "1,1", "7,NaN", "7,Inf", "7,-0", "0x10,1e-3", "7,0.1,2", "", ","} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, rate, err := parseFaults(s)
		if err != nil {
			return
		}
		if math.IsNaN(rate) || rate < 0 || rate > 1 {
			t.Fatalf("parseFaults(%q) accepted rate %g", s, rate)
		}
	})
}

// TestNoRecoveryCellFailureIsOneLine runs README's no-recovery example: the
// dead aggregator's cell fails, and the run must end on one diagnosed line
// naming the cell (one "expt:" prefix, no stack dump) with a non-zero exit.
func TestNoRecoveryCellFailureIsOneLine(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-experiment", "fig10", "-faults", "7,0.05", "-recovery=false"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0, want non-zero; stdout:\n%s", stdout.String())
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
		t.Fatalf("stderr is not one line:\n%s", msg)
	}
	if !strings.HasPrefix(msg, "expt: measurement cell (") || strings.Count(msg, "expt:") != 1 {
		t.Fatalf("stderr does not name the cell under one expt: prefix: %q", msg)
	}
	if !strings.Contains(msg, "fault: aggregator dead") && !strings.Contains(msg, "deadlock") {
		t.Fatalf("stderr names neither the dead aggregator nor a deadlock: %q", msg)
	}
	if strings.Contains(msg+stdout.String(), "goroutine ") {
		t.Fatalf("output carries a stack dump:\n%s", msg)
	}
}
