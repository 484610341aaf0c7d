package tune

import (
	"testing"

	"tapioca/internal/core"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// TestReadPricedFlat: a read session runs flat whatever its tree shape, so
// the predictor prices flat, staged and fanin:2 reads of one pattern the
// same. The write of the same pattern runs each shape and is priced apart.
func TestReadPricedFlat(t *testing.T) {
	p := thetaPlatform(32, 4, 8)
	p.Probe = nil
	fopt := storage.FileOptions{StripeCount: 8, StripeSize: 1 << 20}
	for _, read := range []bool{true, false} {
		w := workload.IOR(128, 1<<19)
		w.Read = read
		pr, err := newPredictor(p, w)
		if err != nil {
			t.Fatal(err)
		}
		secs := map[string]float64{}
		for _, spec := range []string{"flat", "staged", "fanin:2"} {
			sh, err := tree.ParseShape(spec)
			if err != nil {
				t.Fatal(err)
			}
			secs[spec], _ = pr.predict(core.Config{
				Aggregators: 4, BufferSize: 1 << 20, Placement: core.PlacementTopologyAware, Tree: &sh,
			}, fopt)
		}
		same := secs["staged"] == secs["flat"] && secs["fanin:2"] == secs["flat"]
		t.Logf("read=%v: predicted seconds %v", read, secs)
		if read && !same {
			t.Errorf("read: shapes priced %v, want one flat price", secs)
		}
		if !read && same {
			t.Errorf("write: shapes priced alike (%v); the check cannot tell shapes apart", secs)
		}
	}
}
