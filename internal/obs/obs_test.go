package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRecorderDisabledZeroAlloc pins invariant 1 of the package doc: the
// disabled state — a nil recorder, or a metrics-only recorder on the trace
// methods — allocates nothing.
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	metricsOnly := NewRecorder(false)
	for _, tc := range []struct {
		name string
		rec  *Recorder
	}{
		{"nil", nilRec},
		{"metrics-only", metricsOnly},
	} {
		rec := tc.rec
		allocs := testing.AllocsPerRun(1000, func() {
			rec.Span(0, 0, "sched", "run", 0, 10, 0)
			rec.Counter(0, 0, "util", 0, 0.5)
		})
		if allocs != 0 {
			t.Errorf("%s recorder: %v allocs per Span+Counter, want 0", tc.name, allocs)
		}
	}
	if n := len(metricsOnly.Events()); n != 0 {
		t.Errorf("metrics-only recorder buffered %d events", n)
	}
	// Phase accounting and metrics still work without tracing.
	metricsOnly.Phase(PhaseExchange, 100)
	if got := metricsOnly.PhaseTotals()[PhaseExchange]; got != 100 {
		t.Errorf("PhaseTotals[exchange] = %d, want 100", got)
	}
	metricsOnly.Registry().Add("x", 3)
	if got := metricsOnly.Registry().Counter("x").Value(); got != 3 {
		t.Errorf("counter x = %d, want 3", got)
	}
	// Nil recorder: the whole chain is a no-op, not a panic.
	nilRec.Phase(PhaseStorage, 5)
	nilRec.Registry().Add("x", 1)
	nilRec.Registry().Observe("y", 1)
}

// TestRecorderEventCap checks overflow is counted, never silent.
func TestRecorderEventCap(t *testing.T) {
	rec := NewRecorder(true)
	rec.SetEventLimit(4)
	for i := 0; i < 10; i++ {
		rec.Span(0, 0, "c", "n", int64(i), int64(i+1), 0)
	}
	if got := len(rec.Events()); got != 4 {
		t.Errorf("len(events) = %d, want 4", got)
	}
	if got := rec.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}

// fillRegistry populates a registry with one of each metric kind.
func fillRegistry(reg *Registry) {
	reg.Add("net.bytes", 1<<30)
	reg.Add("net.transfers", 4096)
	reg.SetMax("net.util", 0.41)
	for i := 1; i <= 100; i++ {
		reg.Observe("lat", float64(i)*0.001)
	}
}

// TestSnapshotRoundTrip checks the -json embedding survives encoding/json
// losslessly.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	fillRegistry(reg)
	snap := reg.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot did not round-trip:\n in: %+v\nout: %+v", snap, back)
	}
	if snap.Empty() {
		t.Fatal("filled snapshot reports Empty")
	}
}

// TestHistogramQuantiles checks the log-bucketed quantiles are deterministic
// and land within one bucket (≤ ~19% relative) of the exact value, clamped
// to the observed min/max.
func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	for i := 1; i <= 1000; i++ {
		reg.Observe("v", float64(i))
	}
	st := reg.Snapshot().Histograms["v"]
	if st.Count != 1000 {
		t.Fatalf("count = %d, want 1000", st.Count)
	}
	if st.Min != 1 || st.Max != 1000 {
		t.Fatalf("min/max = %v/%v, want 1/1000", st.Min, st.Max)
	}
	if st.P50 < 500*0.8 || st.P50 > 500*1.25 {
		t.Errorf("p50 = %v, want within a bucket of 500", st.P50)
	}
	if st.P99 < 990*0.8 || st.P99 > 1000 {
		t.Errorf("p99 = %v, want within a bucket of 990 (≤ max)", st.P99)
	}
	// Identical observations in any order → identical stats.
	reg2 := NewRegistry()
	for i := 1000; i >= 1; i-- {
		reg2.Observe("v", float64(i))
	}
	if st2 := reg2.Snapshot().Histograms["v"]; st2 != st {
		t.Errorf("order-dependent histogram: %+v vs %+v", st, st2)
	}
}

// TestMergeFromCommutative checks cell merge order cannot change a snapshot
// (the property parallel grid execution relies on). The "frac" samples make
// plain float summation order-dependent: (0.1+0.2)+0.3 and (0.3+0.2)+0.1
// differ in the last bit.
func TestMergeFromCommutative(t *testing.T) {
	frac := map[int64]float64{1: 0.1, 7: 0.2, 100: 0.3}
	mk := func(scale int64) *Registry {
		reg := NewRegistry()
		reg.Add("bytes", scale<<20)
		reg.SetMax("peak", float64(scale))
		for i := int64(1); i <= 10; i++ {
			reg.Observe("lat", float64(i*scale))
		}
		reg.Observe("frac", frac[scale])
		return reg
	}
	a, b, c := mk(1), mk(7), mk(100)

	ab := NewRegistry()
	ab.MergeFrom(a)
	ab.MergeFrom(b)
	ab.MergeFrom(c)
	ba := NewRegistry()
	ba.MergeFrom(c)
	ba.MergeFrom(b)
	ba.MergeFrom(a)
	if s1, s2 := ab.Snapshot(), ba.Snapshot(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("merge not commutative:\nab: %+v\nba: %+v", s1, s2)
	}
	s := ab.Snapshot()
	if got := s.Counters["bytes"]; got != (1+7+100)<<20 {
		t.Errorf("merged counter = %d, want %d", got, int64(108)<<20)
	}
	if got := s.Gauges["peak"]; got != 100 {
		t.Errorf("merged gauge = %v, want 100 (max semantics)", got)
	}
	if got := s.Histograms["lat"].Count; got != 30 {
		t.Errorf("merged histogram count = %d, want 30", got)
	}
	// The exact sum of the three doubles rounds to the double nearest 0.6.
	if got := s.Histograms["frac"].Sum; got != 0.6 {
		t.Errorf("merged frac sum = %v, want 0.6 (the correctly rounded sum)", got)
	}
	// Merging already-merged registries (a tree of merges) agrees too.
	ab2 := NewRegistry()
	ab2.MergeFrom(a)
	rest := NewRegistry()
	rest.MergeFrom(c)
	rest.MergeFrom(b)
	ab2.MergeFrom(rest)
	if s2 := ab2.Snapshot(); !reflect.DeepEqual(s, s2) {
		t.Fatalf("merge not associative:\nflat: %+v\ntree: %+v", s, s2)
	}
}

// traceRecorder builds a small but representative recorder: scheduler spans,
// a resource-timeline span, and a counter sample.
func traceRecorder(base int64) *Recorder {
	rec := NewRecorder(true)
	rec.Span(0, 0, "sched", "run", base, base+100, 0)
	rec.Span(0, 1, "mpi", "barrier", base+20, base+90, 0)
	rec.Span(PIDLinks, 3, "net", "xfer", base+10, base+60, 4096)
	rec.Span(PIDNICs, 2, "net", "tx", base+10, base+55, 4096)
	rec.Span(PIDStorage, 0, "storage", "lustre-write", base+60, base+200, 1<<20)
	rec.Counter(PIDLinks, 3, "util", base+60, 0.75)
	return rec
}

// TestChromeTraceSchema validates the written trace parses as JSON and every
// event carries the Chrome trace-event required fields.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTrace()
	tr.AddCell("cellA", traceRecorder(0))
	tr.AddCell("cellB", traceRecorder(1000))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			PID  *int64          `json:"pid"`
			TID  *int64          `json:"tid"`
			TS   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var spans, counters, meta int
	for i, e := range doc.TraceEvents {
		if e.PID == nil {
			t.Fatalf("event %d: missing pid: %+v", i, e)
		}
		if e.Ph == "X" && e.TID == nil {
			t.Fatalf("span %d: missing tid: %+v", i, e)
		}
		if e.Name == "" {
			t.Fatalf("event %d: missing name", i)
		}
		switch e.Ph {
		case "X":
			spans++
			if e.TS == nil || e.Dur == nil || e.Cat == "" {
				t.Fatalf("span %d: missing ts/dur/cat", i)
			}
		case "C":
			counters++
			if e.TS == nil || len(e.Args) == 0 {
				t.Fatalf("counter %d: missing ts/args", i)
			}
		case "M":
			meta++
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Fatalf("metadata %d: unexpected name %q", i, e.Name)
			}
		default:
			t.Fatalf("event %d: unexpected ph %q", i, e.Ph)
		}
	}
	if spans != 10 || counters != 2 {
		t.Errorf("got %d spans, %d counters; want 10 spans, 2 counters", spans, counters)
	}
	if meta == 0 {
		t.Error("no track-name metadata emitted")
	}
	if tr.NumEvents() != 12 {
		t.Errorf("NumEvents = %d, want 12", tr.NumEvents())
	}
}

// TestTraceCellOrderIndependence pins invariant 2: cells added in any order
// (serial vs parallel completion) produce byte-identical output.
func TestTraceCellOrderIndependence(t *testing.T) {
	write := func(order []int64) []byte {
		tr := NewTrace()
		for _, base := range order {
			// Identical label (grid cells of one figure share it): only the
			// event streams distinguish the cells.
			tr.AddCell("fig", traceRecorder(base))
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fwd := write([]int64{0, 500, 9000})
	rev := write([]int64{9000, 0, 500})
	if !bytes.Equal(fwd, rev) {
		t.Fatal("trace output depends on cell completion order")
	}
}
