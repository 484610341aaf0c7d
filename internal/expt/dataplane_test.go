package expt

import "testing"

// The data-plane figure is wall-clock (machine-dependent), so the test pins
// structure and sanity, not values: every cell must move real bytes and
// verify them, producing strictly positive throughput in every series.
func TestDataPlaneFigureSmoke(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("moves real payload bytes at 128 ranks")
	}
	res := DataPlaneFigure(Env{})
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if len(row.Values) != len(res.Labels) {
			t.Fatalf("row %v: %d values for %d series", row.X, len(row.Values), len(res.Labels))
		}
		for i, v := range row.Values {
			if v <= 0 {
				t.Errorf("buffer %.2f MB: series %q throughput %v", row.X, res.Labels[i], v)
			}
		}
	}
	if ByID("dataplane") == nil {
		t.Fatal("dataplane figure not reachable via ByID")
	}
}

func TestVerifyDataPlaneStats(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs the full verify scenario")
	}
	stats, err := VerifyDataPlaneStats(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PipelineSeconds <= 0 || stats.VerifySeconds <= 0 {
		t.Fatalf("phase timings not recorded: %+v", stats)
	}
}
