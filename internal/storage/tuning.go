package storage

// Autotuner-facing hooks. The simulation models in this package price I/O by
// reserving shared resources in virtual time; the autotuner (internal/tune)
// needs the same calibration as pure arithmetic — no reservations, no state
// mutation — so it can score thousands of candidate configurations without
// touching a machine. Systems implement these interfaces structurally;
// consumers probe with a type assertion (FlushModelOf, StripeAdvisorOf) and
// fall back to a generic bandwidth model when a system has no opinion.

// FlushModel prices one aggregator's buffer flush analytically.
type FlushModel interface {
	// EstimateFlush returns the single-stream seconds for one client to
	// write (or read, when read is true) bytes laid out in runs contiguous
	// file runs, against a file created with opt. It mirrors the
	// calibration of the system's reservation path without booking anything.
	EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64
	// AggregateBandwidth returns the system-wide bytes/second ceiling for
	// concurrent flushes against one file created with opt (OST ceilings on
	// Lustre, ION/backend ceilings on GPFS). Concurrency beyond this rate
	// buys nothing.
	AggregateBandwidth(opt FileOptions, read bool) float64
	// AlignUnit returns the optimal write granularity for a file created
	// with opt — OptimalUnit without needing the file to exist.
	AlignUnit(opt FileOptions) int64
}

// StripeAdvisor is implemented by systems with tunable striping: it
// recommends file-creation options matched to an aggregation configuration.
type StripeAdvisor interface {
	// RecommendStripe returns the FileOptions for a file of totalBytes
	// written by aggregators clients flushing bufSize-byte buffers.
	RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions
}

// FlushModelOf extracts the FlushModel hook from a system, or nil. Fault
// wrappers are seen through: a fault plan changes timing, not calibration.
func FlushModelOf(sys System) FlushModel {
	for ; sys != nil; sys = unwrap(sys) {
		if m, ok := sys.(FlushModel); ok {
			return m
		}
	}
	return nil
}

// StripeAdvisorOf extracts the StripeAdvisor hook from a system, or nil.
// Sees through fault wrappers like FlushModelOf.
func StripeAdvisorOf(sys System) StripeAdvisor {
	for ; sys != nil; sys = unwrap(sys) {
		if a, ok := sys.(StripeAdvisor); ok {
			return a
		}
	}
	return nil
}
