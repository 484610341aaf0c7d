package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"
)

// protoWriter encodes the few protobuf shapes a pprof profile uses.
type protoWriter struct{ bytes.Buffer }

func (w *protoWriter) varint(x uint64) { w.Write(binary.AppendUvarint(nil, x)) }

func (w *protoWriter) uint(num int, v uint64) {
	w.varint(uint64(num<<3 | 0))
	w.varint(v)
}

func (w *protoWriter) message(num int, body []byte) {
	w.varint(uint64(num<<3 | 2))
	w.varint(uint64(len(body)))
	w.Write(body)
}

func (w *protoWriter) packed(num int, vals ...uint64) {
	var body protoWriter
	for _, v := range vals {
		body.varint(v)
	}
	w.message(num, body.Bytes())
}

// syntheticProfile builds a gzipped profile whose samples have the given
// stacks (innermost first) and counts. Each function gets its own location,
// except that stacks[i] entries joined by "|" share one location as an
// inlined callee|caller pair.
func syntheticProfile(t *testing.T, stacks [][]string, counts []uint64) []byte {
	t.Helper()
	var prof protoWriter
	strIdx := map[string]uint64{"": 0}
	strs := []string{""}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f protoWriter
		f.uint(functionID, id)
		f.uint(functionName, intern(name))
		prof.message(profFunction, f.Bytes())
		return id
	}
	loc := func(frame string) uint64 {
		if id, ok := locID[frame]; ok {
			return id
		}
		id := uint64(len(locID) + 1)
		locID[frame] = id
		var l protoWriter
		l.uint(locationID, id)
		for _, name := range bytes.Split([]byte(frame), []byte("|")) {
			var line protoWriter
			line.uint(lineFunction, fn(string(name)))
			l.message(locationLine, line.Bytes())
		}
		prof.message(profLocation, l.Bytes())
		return id
	}
	for i, st := range stacks {
		var locs []uint64
		for _, frame := range st {
			locs = append(locs, loc(frame))
		}
		var s protoWriter
		s.packed(sampleLocationID, locs...)
		s.packed(sampleValue, counts[i], counts[i]*10_000_000)
		prof.message(profSample, s.Bytes())
	}
	for _, s := range strs {
		prof.message(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesAttributesInnermostLibraryFrame(t *testing.T) {
	stacks := [][]string{
		{"tapioca/internal/sim.(*Proc).Park", "tapioca/internal/mpi.(*Comm).Barrier", "main.(*pass).run"},
		// Runtime work folds into the library frame that caused it.
		{"runtime.mallocgc", "tapioca/internal/core.buildPlan", "tapioca/internal/mpi.(*Comm).Collective"},
		// An inlined callee is the innermost frame of its location.
		{"tapioca/internal/topology.(*Dragonfly).Distance|tapioca/internal/cost.(*Model).distance", "main.main"},
		{"runtime.memmove", "main.(*pass).run"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
		{"syscall.Syscall6", "os.(*File).Write"},
	}
	counts := []uint64{30, 20, 10, 10, 15, 10, 5}
	want := map[string]float64{
		"sim": 30, "core": 20, "topology": 10, bucketBench: 10,
		bucketGC: 15, bucketSched: 10, bucketOther: 5,
	}
	shares, err := cpuShares(syntheticProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(cpuLayers)+4 {
		t.Errorf("got %d buckets, want every layer plus 4", len(shares))
	}
	var total float64
	for name, got := range shares {
		total += got
		if math.Abs(got-want[name]) > 1e-9 {
			t.Errorf("%s = %.3f%%, want %.3f%%", name, got, want[name])
		}
	}
	if math.Abs(total-100) > 1 {
		t.Errorf("shares sum to %.3f%%, want 100 ± 1", total)
	}
}

func TestCPUSharesReadRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		spin()
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total != 0 && math.Abs(total-100) > 1 {
		t.Errorf("shares sum to %.3f%%, want 100 ± 1", total)
	}
	// The race detector's C runtime hides the Go frames of most samples.
	if total != 0 && !raceEnabled() && shares[bucketBench] < 50 {
		t.Errorf("a profile of a busy loop in this package attributes %.1f%% to bench, want most of it", shares[bucketBench])
	}
}

var spinSink uint64

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func spin() {
	for i := 0; i < 1000; i++ {
		spinSink = spinSink*6364136223846793005 + 1
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	prof := syntheticProfile(t, [][]string{{"main.main"}}, []uint64{1})
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := cpuShares(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
