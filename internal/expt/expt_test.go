package expt

import (
	"reflect"
	"strings"
	"testing"

	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"fig7", "fig8", "fig9", "fig10", "table1", "fig11", "fig12", "fig13", "fig14"}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id resolved")
	}
}

// TestMiraRigInjectsAtTopologyRate: the Mira rig's NICs run at the torus's
// injection-level rate, the one value the topology reports for it.
func TestMiraRigInjectsAtTopologyRate(t *testing.T) {
	r := miraRig(Env{}, 128, 1, storage.LockShared)
	if got, want := r.fab.Config().InjectRate, r.topo.Bandwidth(topology.LevelInjection); got != want {
		t.Fatalf("Mira rig fabric injects at %g B/s, topology answers %g", got, want)
	}
}

func TestRenderAndCSV(t *testing.T) {
	t.Parallel()
	res := Result{
		ID: "x", Title: "T", XLabel: "mb",
		Labels: []string{"a", "b"},
		Rows:   []Row{{X: 1, Values: []float64{2, 3}}},
		Notes:  []string{"n"},
	}
	out := Render(res)
	if !strings.Contains(out, "T") || !strings.Contains(out, "2.000") {
		t.Fatalf("render = %q", out)
	}
	csv := CSV(res)
	if !strings.Contains(csv, "x,a,b") || !strings.Contains(csv, "1,2,3") {
		t.Fatalf("csv = %q", csv)
	}
}

// Shape assertions on the fast experiments (reduced scale). The heavier
// grids (Figs. 11, 12, 14) are exercised by the benchmarks.

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := Fig8(Env{})
	for _, row := range res.Rows {
		optR, optW, baseR, baseW := row.Values[0], row.Values[1], row.Values[2], row.Values[3]
		if optW < 3*baseW {
			t.Errorf("x=%v: optimized write %v not >>3x baseline %v", row.X, optW, baseW)
		}
		if optR < 2*baseR {
			t.Errorf("x=%v: optimized read %v not >>2x baseline %v", row.X, optR, baseR)
		}
		if baseR < baseW {
			// Reads outpace writes on untuned Lustre in the paper too.
			t.Errorf("x=%v: baseline read %v below baseline write %v", row.X, baseR, baseW)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := Fig10(Env{})
	last := res.Rows[len(res.Rows)-1]
	if last.Values[0] <= last.Values[1] {
		t.Errorf("TAPIOCA %v not ahead of MPI-IO %v at the largest size", last.Values[0], last.Values[1])
	}
	for _, row := range res.Rows {
		if row.Values[0] < 0.9*row.Values[1] {
			t.Errorf("x=%v: TAPIOCA %v materially behind MPI-IO %v", row.X, row.Values[0], row.Values[1])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := Table1(Env{})
	var peakX float64
	var peakV float64
	for _, row := range res.Rows {
		if row.Values[0] > peakV {
			peakV = row.Values[0]
			peakX = row.X
		}
	}
	if peakX != 1 {
		t.Errorf("peak ratio = %v, want 1:1 (paper Table I)", peakX)
	}
	// Both extremes must be below the peak.
	first, last := res.Rows[0].Values[0], res.Rows[len(res.Rows)-1].Values[0]
	if first >= peakV || last >= peakV {
		t.Errorf("extremes (%v, %v) not below peak %v", first, last, peakV)
	}
}

func TestFig13Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := Fig13(Env{})
	for _, row := range res.Rows {
		tapAoS, mpiAoS := row.Values[0], row.Values[1]
		tapSoA, mpiSoA := row.Values[2], row.Values[3]
		if tapAoS < 4*mpiAoS {
			t.Errorf("x=%v: TAPIOCA AoS %v not >>4x MPI-IO AoS %v", row.X, tapAoS, mpiAoS)
		}
		if tapSoA < mpiSoA {
			t.Errorf("x=%v: TAPIOCA SoA %v behind MPI-IO SoA %v", row.X, tapSoA, mpiSoA)
		}
	}
}

func TestAblationPipelineShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := AblationPipeline(Env{})
	theta := res.Rows[0]
	if theta.Values[0] < 1.5*theta.Values[1] {
		t.Errorf("double buffering %v not >=1.5x single %v on Theta", theta.Values[0], theta.Values[1])
	}
}

func TestAblationDeclaredShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := AblationDeclared(Env{})
	for _, row := range res.Rows {
		if row.Values[0] < 3*row.Values[1] {
			t.Errorf("x=%v: declared %v not >>3x per-call %v", row.X, row.Values[0], row.Values[1])
		}
	}
}

// TestAblationAutotuneShape holds the autotuner to its acceptance bar on
// the Theta collective write: the tuned configuration must be (a) no slower
// than the library defaults and (b) within 10% of the best configuration an
// exhaustive sweep over the same search space finds — and the pick itself
// must be deterministic across runs.
func TestAblationAutotuneShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	res := AblationAutotune(Env{})
	row := res.Rows[0]
	def, tuned, sweep := row.Values[0], row.Values[1], row.Values[2]
	if tuned < def {
		t.Errorf("tuned %v GB/s slower than defaults %v GB/s", tuned, def)
	}
	if tuned < 0.9*sweep {
		t.Errorf("tuned %v GB/s not within 10%% of sweep best %v GB/s", tuned, sweep)
	}
	// The pick is deterministic: re-running the (simulation-free) search
	// lands on the identical configuration.
	again := AblationAutotune(Env{})
	if res.Notes[0] != again.Notes[0] {
		t.Errorf("non-deterministic pick:\n%s\n%s", res.Notes[0], again.Notes[0])
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("experiment grid")
	}
	a := Fig10(Env{})
	b := Fig10(Env{})
	for i := range a.Rows {
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i].Values[j], b.Rows[i].Values[j])
			}
		}
	}
}

// TestStagingAblationsIgnoreArmedShape: abl-intranode and abl-tree pin the
// shape of every cell they run, so arming a tree shape for the whole run
// (tapiocabench -tree) must leave both figures exactly as they are.
func TestStagingAblationsIgnoreArmedShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("two ablation figures, twice")
	}
	fanin, err := tree.ParseShape("fanin:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"abl-intranode", "abl-tree"} {
		s := ByID(id)
		plain, _ := s.Run(Env{})
		armed, _ := s.Run(Env{Tree: &fanin})
		if !reflect.DeepEqual(plain, armed) {
			t.Errorf("%s: armed fanin:2 changed the figure:\nplain: %+v\narmed: %+v", id, plain, armed)
		}
	}
}
