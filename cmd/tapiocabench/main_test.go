package main

import (
	"math"
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
