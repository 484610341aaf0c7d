package tune

import (
	"fmt"
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
			cfg := core.Config{Aggregators: 4, BufferSize: 1 << 20, Placement: core.PlacementTopologyAware, Tree: &sh}
			secs[spec], _ = pr.predict(cfg, fopt, pr.plan(cfg, fopt))
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

// bandedPattern is strided small blocks: rank r's j-th block sits in the
// file's j-th band after the lower ranks' blocks, so every partition's
// members interleave band by band.
func bandedPattern(ranks, blocks int, blk int64) workload.Pattern {
	return workload.Pattern{Name: "banded", Ranks: ranks, Declared: func(rank, _ int) [][]storage.Seg {
		segs := make([]storage.Seg, blocks)
		for j := range segs {
			segs[j] = storage.Contig((int64(j*ranks)+int64(rank))*blk, blk)
		}
		return [][]storage.Seg{segs}
	}}
}

// TestPredictionsMatchFreshPlans: the search plans each grid point once and
// prices every shape of it from that plan. Each candidate's prediction must
// equal one planned afresh for its own configuration, bit for bit, and the
// pick must stay the one the per-shape planner made.
func TestPredictionsMatchFreshPlans(t *testing.T) {
	p := thetaPlatform(32, 4, 8)
	p.Probe = nil
	w := bandedPattern(128, 8, 16<<10)
	const penalty = 2e-4
	res := Autotune(p, w, Options{
		Aggregators: []int{1, 2}, BufferSizes: []int64{1 << 20, 4 << 20},
		TreeSearch: true, MessagePenalty: penalty,
	})
	treed := 0
	for _, c := range res.Candidates {
		pr, err := newPredictor(p, w)
		if err != nil {
			t.Fatal(err)
		}
		pr.msgPenalty = penalty
		want, single := pr.predict(c.Config, c.FileOptions, pr.plan(c.Config, c.FileOptions))
		if c.Config.SingleBuffer {
			want = single
		}
		if c.Predicted != want {
			t.Errorf("%s aggr=%d buf=%d single=%v: predicted %v, fresh plan %v",
				c.Config.Shape(), c.Config.Aggregators, c.Config.BufferSize, c.Config.SingleBuffer, c.Predicted, want)
		}
		if !c.Config.Shape().Degenerate() {
			treed++
		}
	}
	if treed == 0 {
		t.Fatal("no searched-tree candidates: the check covers no tree shape")
	}
	pick := fmt.Sprintf("%s aggr=%d buf=%d single=%v", res.Config.Shape(), res.Config.Aggregators, res.Config.BufferSize, res.Config.SingleBuffer)
	t.Logf("%d candidates, %d with interior shapes, pick %s (%.6g s)", len(res.Candidates), treed, pick, res.Predicted)
	if want := "fanin:5 aggr=2 buf=1048576 single=false"; pick != want {
		t.Errorf("pick %s, want %s", pick, want)
	}
}
