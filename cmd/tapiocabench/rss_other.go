//go:build !unix

package main

// peakRSSBytes reports 0 where the peak resident set size is not measured.
func peakRSSBytes() uint64 { return 0 }
