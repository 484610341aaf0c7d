package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"tapioca/internal/workload"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestEmitsEveryMetric runs every workload at smoke size, plain and traced,
// and checks each emits exactly the metrics BENCHMARK.json declares, with
// their units, and fails no operation.
func TestEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared := s.EndToEnd
			if traced {
				declared = s.PerLayer
			}
			res, err := runWorkload(&w, params{seed: 3, smoke: true}, 0.01, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// onePass prepares a workload at smoke size and runs one pass.
func onePass(t *testing.T, w *workloadSpec, pr params, traced bool) *pass {
	t.Helper()
	run, _ := w.prepare(pr)
	p := newPass(traced)
	run(p)
	if pr.flipStoreByte {
		return p
	}
	if p.failed != 0 {
		t.Fatalf("%s: %v", w.name, p.errs)
	}
	return p
}

// TestPassesRepeatExactly checks that work counts and virtual-result digests
// repeat exactly across runs of one seed, and between plain and traced runs.
func TestPassesRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		pr := params{seed: 2, smoke: true}
		a := onePass(t, &w, pr, false)
		b := onePass(t, &w, pr, false)
		c := onePass(t, &w, pr, true)
		for _, p := range []*pass{b, c} {
			if p.work != a.work || !reflect.DeepEqual(p.digest, a.digest) {
				t.Errorf("%s: pass (traced=%v) counts %+v digest %+v, first pass %+v %+v",
					w.name, p.traced, p.work, p.digest, a.work, a.digest)
			}
		}
	}
}

func TestFlippedStoreByteIsCounted(t *testing.T) {
	w := workloadByName("dataplane-rw")
	p := onePass(t, w, params{seed: 1, smoke: true, flipStoreByte: true}, false)
	if p.failed == 0 {
		t.Fatal("a flipped store byte went unnoticed")
	}
	var crc bool
	for _, e := range p.errs {
		crc = crc || strings.Contains(e, "store checksum")
	}
	if !crc {
		t.Errorf("the store-vs-writer checksum comparison did not fail: %v", p.errs)
	}
}

func TestSeedOneIsThePaperPattern(t *testing.T) {
	const ranks, particles = 6, 1000
	for _, layout := range []int{workload.AoS, workload.SoA} {
		got := haccDecl(perRank(ranks, particles, 1, 0), layout)
		for r := 0; r < ranks; r++ {
			if want := workload.HACCDeclared(r, ranks, particles, layout); !reflect.DeepEqual(got[r], want) {
				t.Fatalf("%s rank %d: %v, want %v", workload.LayoutName(layout), r, got[r], want)
			}
		}
	}
}

func TestOtherSeedsKeepTheVolume(t *testing.T) {
	for seed := uint64(2); seed < 6; seed++ {
		sizes := perRank(7, 1000, seed, 0)
		if sum(sizes) != 7000 {
			t.Errorf("seed %d: sizes %v sum to %d, want 7000", seed, sizes, sum(sizes))
		}
		for _, s := range sizes {
			if s < 950 || s > 1050 {
				t.Errorf("seed %d: size %d more than 5%% from 1000", seed, s)
			}
		}
	}
}
