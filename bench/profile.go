package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the library packages CPU samples are attributed to. A sample
// goes to the innermost frame of one of these packages on its stack, so
// runtime work (allocation, channel operations, GC assists) folds into the
// library code that caused it.
var cpuLayers = []string{
	"sim", "topology", "netsim", "mpi", "cost", "core", "tree", "mpiio",
	"storage", "dataplane", "workload", "tune", "fault", "obs", "par",
}

// Buckets for samples with no library frame: the benchmark's own code, GC
// workers, scheduler (g0) stacks, and everything else.
const (
	bucketBench = "bench"
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketOther = "runtime.other"
)

// cpuShares decodes a gzipped CPU profile as runtime/pprof writes it and
// returns the percentage of samples in each layer and bucket. Every name is
// present; the shares sum to 100 when the profile holds any samples.
func cpuShares(gzipped []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(gzipped)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{bucketBench: 0, bucketGC: 0, bucketSched: 0, bucketOther: 0}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range stacks {
		shares[attribute(s.frames)] += float64(s.count)
		total += float64(s.count)
	}
	if total > 0 {
		for k := range shares {
			shares[k] *= 100 / total
		}
	}
	return shares, nil
}

// attribute picks the bucket of one stack, listed innermost frame first.
func attribute(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "tapioca/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range cpuLayers {
				if pkg == l {
					return l
				}
			}
		}
	}
	for _, fn := range frames {
		// This package is "main" in the built benchmark and "tapioca/bench"
		// in its test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "tapioca/bench.") {
			return bucketBench
		}
	}
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), fn == "runtime.bgsweep", fn == "runtime.bgscavenge":
			return bucketGC
		case fn == "runtime.mcall", fn == "runtime.schedule", fn == "runtime.mstart":
			return bucketSched
		}
	}
	return bucketOther
}

// stack is one profile sample: its function names, innermost first, and its
// sample count.
type stack struct {
	frames []string
	count  int64
}

// Field numbers of the pprof profile.proto messages this decoder reads.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile reads the samples of a gzipped pprof profile, resolving each
// location to its function names (inlined callees first, as profile.proto
// orders a location's lines).
func decodeProfile(gzipped []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	var strs []string
	funcName := map[uint64]int64{}    // function id → string index
	locFuncs := map[uint64][]uint64{} // location id → function ids
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSample:
			var s sample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case sampleLocationID:
					s.locs, err = appendVarints(s.locs, v, b)
				case sampleValue:
					values, err = appendVarints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf message")

// appendVarints appends a repeated varint field, packed (b holds the
// varints) or not (v is one value).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
