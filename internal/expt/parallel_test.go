package expt

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/tree"
)

// TestParallelRunMatchesSerial is the grid runner's determinism contract:
// for every registered experiment, running the grid on the worker pool
// produces output deep-equal to the serial order, with identical transfer,
// fabric-message, park and switch counts. Cells are independent simulations assembled by
// index, so any divergence is a real isolation bug (shared mutable state
// leaking between engines). Under the race detector (~10-20x slower
// simulations) the matrix trims itself to a representative subset so race
// CI finishes inside go test's default timeout; the full matrix runs in
// every non-race pass.
func TestParallelRunMatchesSerial(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	raceSubset := map[string]bool{"fig10": true, "table1": true, "abl-contention": true}
	for _, s := range All() {
		if raceEnabled && !raceSubset[s.ID] {
			continue
		}
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			serial, sc := s.Run(Env{Workers: 1})
			parallel, pc := s.Run(Env{Workers: 8})
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel run diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			if sc.Transfers != pc.Transfers || sc.FabricMessages != pc.FabricMessages ||
				sc.Parks != pc.Parks || sc.Switches != pc.Switches {
				t.Fatalf("counters diverged: serial %+v, parallel %+v", sc, pc)
			}
		})
	}
}

// TestWorkerPoolRaceExercise runs one small grid with a wide pool so even
// -short -race runs drive concurrent engines through the worker pool.
func TestWorkerPoolRaceExercise(t *testing.T) {
	t.Parallel()
	res := AblationContention(Env{Workers: 8})
	if len(res.Rows) != 1 || len(res.Rows[0].Values) != 2 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	for i, v := range res.Rows[0].Values {
		if v <= 0 {
			t.Fatalf("cell %d returned %v GB/s", i, v)
		}
	}
}

// TestConcurrentEnvsIsolated: two runs with different settings share one
// process without seeing each other. abl-contention runs observed with
// tracing and a zero-rate fault profile while abl-aggrcount runs with a
// fanin:2 tree and its own metrics observer, on concurrent goroutines. Each must
// reproduce the same Env run alone — figure, counters, trace bytes and
// metrics — and neither observer may hold the other run's cells.
func TestConcurrentEnvsIsolated(t *testing.T) {
	t.Parallel()
	zero := fault.Profile(7, 0)
	fanin, err := tree.ParseShape("fanin:2")
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res    Result
		counts Counts
		obs    *Observer
		trace  []byte
	}
	runs := []struct {
		id  string
		env func() Env
	}{
		{"abl-contention", func() Env {
			return Env{Workers: 2, Faults: &zero, Observer: NewObserver(true)}
		}},
		{"abl-aggrcount", func() Env {
			return Env{Workers: 2, Tree: &fanin, Observer: NewObserver(false)}
		}},
	}
	run := func(i int) out {
		env := runs[i].env()
		res, counts := ByID(runs[i].id).Run(env)
		o := out{res: res, counts: counts, obs: env.Observer}
		if tr := env.Observer.Trace(); tr != nil {
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Error(err)
			}
			o.trace = buf.Bytes()
		}
		return o
	}
	alone := []out{run(0), run(1)}
	together := make([]out, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(i)
		}()
	}
	wg.Wait()

	for i, r := range runs {
		a, c := alone[i], together[i]
		if !reflect.DeepEqual(a.res, c.res) {
			t.Errorf("%s: concurrent figure differs from the run alone:\nalone:      %+v\nconcurrent: %+v", r.id, a.res, c.res)
		}
		if a.counts.Transfers != c.counts.Transfers || a.counts.FabricMessages != c.counts.FabricMessages {
			t.Errorf("%s: concurrent counters %+v differ from the run alone %+v", r.id, c.counts, a.counts)
		}
		if c.counts.Transfers == 0 {
			t.Errorf("%s: no transfers counted", r.id)
		}
		if !bytes.Equal(a.trace, c.trace) {
			t.Errorf("%s: concurrent trace (%d bytes) differs from the run alone (%d bytes)", r.id, len(c.trace), len(a.trace))
		}
		compareSnapshots(t, stripHost(a.obs.Metrics(r.id).Snapshot()), stripHost(c.obs.Metrics(r.id).Snapshot()))
		if a.obs.PhaseTotals(r.id) != c.obs.PhaseTotals(r.id) {
			t.Errorf("%s: concurrent phase totals differ from the run alone", r.id)
		}
		other := runs[1-i].id
		if !c.obs.Metrics(other).Snapshot().Empty() || !c.obs.PhaseTotals(other).Empty() {
			t.Errorf("%s: observer holds cells of the concurrent %s run", r.id, other)
		}
	}
	if alone[0].trace == nil {
		t.Error("traced run recorded no trace")
	}
}
