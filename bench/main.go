// Command bench is the repository's host-performance benchmark. It drives
// the TAPIOCA library through five workloads, each on freshly built
// simulated platforms, times every collective call from outside at barriers,
// checks every output, and prints each metric by name and unit, ending with
// one JSON result line.
//
// Build and run it from the repository root:
//
//	bash bench/run.sh --workload hacc-tapioca --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 2
//	bash bench/run.sh --reference > bench/reference.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones (call shares, work counts, a CPU-profile layer split, the
// virtual phase totals and the layer micro-benchmarks).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest passes a run measures, however long they take, so
// every median has samples on both sides.
const minPasses = 3

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed; 1 is the paper's uniform configuration")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics (traced run), 0 the end-to-end ones")
	reference := flag.Bool("reference", false, "print the virtual-result digests of seeds 1 and 2 as JSON and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	if *reference {
		ref, err := generateReference()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(ref)
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("need --seconds > 0 and --trace 0 or 1"))
	}
	pr := params{seed: *seed}
	var res result
	var err error
	if *name == "all" {
		res, err = runAll(*seed, *seconds, *trace)
	} else if w := workloadByName(*name); w != nil {
		res, err = runWorkload(w, pr, *seconds, *trace == 1)
		if err == nil {
			printTable(os.Stdout, res)
		}
	} else {
		err = fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n", line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload generates the inputs, measures passes for the given host
// seconds and derives the metrics. A traced run measures half its time
// untraced and half under a CPU profile with the flight recorder attached,
// then runs the layer micro-benchmarks.
func runWorkload(w *workloadSpec, pr params, seconds float64, traced bool) (result, error) {
	t0 := time.Now()
	run, mi := w.prepare(pr)
	gen := time.Since(t0)

	var res result
	var passes []*pass
	if traced {
		plain := measure(run, seconds/2, false)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		tracedPasses := measure(run, seconds/2, true)
		pprof.StopCPUProfile()
		passes = append(plain, tracedPasses...)
		ms, err := layerMetrics(passes, plain, tracedPasses, gen.Seconds(), prof.Bytes())
		if err != nil {
			return result{}, err
		}
		minTime := microMin
		if pr.smoke {
			minTime = time.Millisecond
		}
		micro, err := microBenchmarks(mi, minTime)
		if err != nil {
			return result{}, err
		}
		for name, m := range micro {
			ms[name] = m
		}
		res.Metrics = ms
	} else {
		passes = measure(run, seconds, false)
		res.Metrics = map[string]metric{
			"wall_s":       {median(passes, func(p *pass) float64 { return p.wall.Seconds() }), "s"},
			"setup_s":      {median(passes, func(p *pass) float64 { return p.setup.Seconds() }), "s"},
			"peak_rss_mib": {peakRSSMiB(), "MiB"},
		}
	}
	ref, hasRef := referenceFor(pr, w.name)
	res.Attempted, res.Failed = check(passes, ref, hasRef)
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs passes until the host seconds are spent, and at least
// minPasses of them.
func measure(run func(*pass), seconds float64, traced bool) []*pass {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var passes []*pass
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p := newPass(traced)
		before := readRuntime()
		run(p)
		after := readRuntime()
		p.allocBytes = after.allocBytes - before.allocBytes
		p.gcCycles = after.gcCycles - before.gcCycles
		p.cpu = after.cpu - before.cpu
		passes = append(passes, p)
	}
	return passes
}

// check counts the run's operations and failures: every session, tuner
// search and checksum comparison of every pass, plus one digest comparison
// per cell and one work-count comparison per pass. Digests and counts must
// repeat exactly across passes, traced or not, and digests must match the
// committed reference where the seed has one.
func check(passes []*pass, ref []cellDigest, hasRef bool) (attempted, failed int) {
	first := passes[0]
	want := first.digest
	if hasRef {
		want = ref
	}
	for i, p := range passes {
		for j := 0; j < max(len(p.digest), len(want)); j++ {
			var got, exp cellDigest
			if j < len(p.digest) {
				got = p.digest[j]
			}
			if j < len(want) {
				exp = want[j]
			}
			var err error
			if got != exp {
				err = fmt.Errorf("pass %d: virtual result %+v, want %+v", i, got, exp)
			}
			p.op("digest", err)
		}
		var err error
		if p.work != first.work {
			err = fmt.Errorf("pass %d: work counts %+v differ from the first pass's %+v", i, p.work, first.work)
		}
		p.op("work counts", err)
		attempted += p.attempted
		failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "bench: failed:", e)
		}
	}
	return attempted, failed
}

// median returns the median of f over the passes.
func median(passes []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printTable prints the run settings and every metric by name with its unit.
func printTable(w io.Writer, res result) {
	fmt.Fprintf(w, "GOMAXPROCS=%d GOGC=%s\n", runtime.GOMAXPROCS(0), gogc())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-28s %14d of %d operations failed\n", "correctness", res.Failed, res.Attempted)
}

// runAll re-executes this binary once per workload, so each workload's peak
// RSS is its own, and merges the results under "<workload>/<metric>".
func runAll(seed uint64, seconds float64, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Printf("== %s\n%s\n", name, strings.Join(lines[:len(lines)-1], "\n"))
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return result{}, fmt.Errorf("workload %s: result line: %w", name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[name+"/"+n] = m
		}
	}
	return all, nil
}

// gogc reports the garbage collector's target percentage as the runtime
// applies it: Go's default unless the GOGC environment variable sets it.
func gogc() string {
	pct := debug.SetGCPercent(100)
	debug.SetGCPercent(pct)
	if pct < 0 {
		return "off"
	}
	return fmt.Sprint(pct)
}
