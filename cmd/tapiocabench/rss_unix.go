//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSBytes is the process's peak resident set size so far.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return uint64(ru.Maxrss) // bytes on macOS
	}
	return uint64(ru.Maxrss) << 10 // KiB on Linux and the BSDs
}
