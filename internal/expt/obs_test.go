package expt

import (
	"crypto/sha256"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"tapioca/internal/obs"
)

// stripHost drops the "host."-prefixed metrics (wall-clock measurements,
// legitimately nondeterministic) so the rest of the snapshot can be compared
// exactly.
func stripHost(s obs.Snapshot) obs.Snapshot {
	for name := range s.Counters {
		if strings.HasPrefix(name, "host.") {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, "host.") {
			delete(s.Gauges, name)
		}
	}
	for name := range s.Histograms {
		if strings.HasPrefix(name, "host.") {
			delete(s.Histograms, name)
		}
	}
	return s
}

// byteCounter is an io.Writer that counts the bytes written to it.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// TestTraceDeterminism is the flight recorder's core acceptance: the same
// figure observed serially and on the worker pool produces byte-identical
// Chrome traces (compared by SHA-256 sums taken as each trace streams out,
// so no trace is held in memory), identical metrics snapshots (minus
// "host." wall-clock), and identical phase totals — and observation does
// not change the figure's measured results.
func TestTraceDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	s := ByID("abl-pipeline")
	if s == nil {
		t.Fatal("unknown spec abl-pipeline")
	}
	baseline, _ := s.Run(Env{Workers: 1})

	type capture struct {
		res    Result
		trace  [sha256.Size]byte
		traceN byteCounter
		snap   obs.Snapshot
		phases obs.PhaseTotals
		table  string
	}
	runObserved := func(workers int) capture {
		o := NewObserver(true)
		res, _ := s.Run(Env{Workers: workers, Observer: o})
		tr := o.Trace()
		if tr == nil || tr.NumEvents() == 0 {
			t.Fatal("no trace recorded")
		}
		if tr.Dropped() != 0 {
			t.Fatalf("trace dropped %d events at this scale", tr.Dropped())
		}
		c := capture{
			res:    res,
			snap:   stripHost(o.Metrics(s.ID).Snapshot()),
			phases: o.PhaseTotals(s.ID),
			table:  o.PhaseTable(s.ID),
		}
		h := sha256.New()
		if err := tr.Write(io.MultiWriter(h, &c.traceN)); err != nil {
			t.Fatal(err)
		}
		c.trace = [sha256.Size]byte(h.Sum(nil))
		return c
	}

	serial := runObserved(1)
	parallel := runObserved(4)

	if !reflect.DeepEqual(baseline, serial.res) {
		t.Errorf("observation changed the figure's results:\nbase: %+v\nobs:  %+v", baseline, serial.res)
	}
	if !reflect.DeepEqual(serial.res, parallel.res) {
		t.Errorf("serial and parallel observed results differ")
	}
	if serial.trace != parallel.trace {
		t.Errorf("serial and parallel traces differ (%d vs %d bytes)", serial.traceN, parallel.traceN)
	}
	compareSnapshots(t, serial.snap, parallel.snap)
	if serial.phases != parallel.phases {
		t.Errorf("serial and parallel phase totals differ: %v vs %v", serial.phases, parallel.phases)
	}
	if serial.phases.Empty() {
		t.Error("no phase time recorded")
	}
	if serial.snap.Empty() {
		t.Error("no metrics recorded")
	}
	if serial.table == "" {
		t.Error("PhaseTable empty for an observed figure")
	}
	if serial.table != parallel.table {
		t.Errorf("serial and parallel phase tables differ:\n%s\nvs\n%s", serial.table, parallel.table)
	}
}

// compareSnapshots requires exact equality everywhere except histogram Sum
// and Mean, which accumulate float64 in cell-completion order and may differ
// in the last ulp between serial and parallel runs.
func compareSnapshots(t *testing.T, a, b obs.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("counters differ:\na: %v\nb: %v", a.Counters, b.Counters)
	}
	if !reflect.DeepEqual(a.Gauges, b.Gauges) {
		t.Errorf("gauges differ:\na: %v\nb: %v", a.Gauges, b.Gauges)
	}
	if len(a.Histograms) != len(b.Histograms) {
		t.Fatalf("histogram sets differ: %d vs %d", len(a.Histograms), len(b.Histograms))
	}
	for name, ha := range a.Histograms {
		hb, ok := b.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing from second snapshot", name)
			continue
		}
		if ha.Count != hb.Count || ha.Min != hb.Min || ha.Max != hb.Max || ha.P50 != hb.P50 || ha.P99 != hb.P99 {
			t.Errorf("histogram %q differs: %+v vs %+v", name, ha, hb)
		}
		if relDiff(ha.Sum, hb.Sum) > 1e-9 || relDiff(ha.Mean, hb.Mean) > 1e-9 {
			t.Errorf("histogram %q sum/mean diverged beyond rounding: %+v vs %+v", name, ha, hb)
		}
	}
}

func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// TestObservedVerifyMetrics checks satellite coverage of the data-plane
// verification run: observing VerifyDataPlaneStats surfaces the
// pipeline/verify wall-clock split and the storage counters in the metrics
// registry.
func TestObservedVerifyMetrics(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("data-plane round trip")
	}
	o := NewObserver(false)
	stats, err := VerifyDataPlaneStats(Env{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics("verify").Snapshot()
	if snap.Empty() {
		t.Fatal("verify run recorded no metrics")
	}
	if got := snap.Gauges["host.verify_pipeline_seconds"]; got != stats.PipelineSeconds {
		t.Errorf("host.verify_pipeline_seconds = %v, want %v", got, stats.PipelineSeconds)
	}
	if got := snap.Gauges["host.verify_verify_seconds"]; got != stats.VerifySeconds {
		t.Errorf("host.verify_verify_seconds = %v, want %v", got, stats.VerifySeconds)
	}
	if snap.Counters["storage.bytes_written"] == 0 {
		t.Error("verify run recorded no storage writes")
	}
}
