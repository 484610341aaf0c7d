// Command tapiocabench regenerates the paper's tables and figures.
//
// Usage:
//
//	tapiocabench -list
//	tapiocabench -experiment fig10
//	tapiocabench -experiment all -scale full -csv out/
//	tapiocabench -experiment all -json results.json
//	tapiocabench -experiment all -workers 1   # serial reference run
//	tapiocabench -experiment fig7 -trace fig7.trace.json -phases
//
// At the default -scale reduced, experiments run at ≈1/4 the paper's nodes
// (preserving its shapes). -scale full uses the paper's own node counts (up
// to 65,536 simulated ranks); with -experiment all it runs the six
// registered full-scale variants (fig7-full, fig9-full, fig10-full,
// fig13-full, abl-intranode-full, abl-tree-full), each of which completes in
// minutes on one core.
//
// The run settings become one expt.Env value that every experiment's Run
// takes: -scale sets Env.Full; -workers sets Env.Workers, the width of the
// worker pool each figure's independent grid cells execute on (results are
// identical to the serial order, -workers 1); -faults, -recovery, -short
// and -tree set Env.Faults, Env.NoRecovery, Env.Short and Env.Tree; and
// -trace, -json and -phases attach an expt.Observer. Each Run returns its
// own transfer, fabric-message, park and switch counters.
//
// -json writes one machine-readable file covering every experiment run —
// including per-figure wall-clock seconds, the process's peak RSS, simulated
// transfer counts, a flight-recorder metrics snapshot, and a per-phase time
// breakdown — so benchmark trajectories capture simulator speed and
// footprint, not just simulated GB/s. -trace writes the whole run's flight
// recording as Chrome trace-event JSON (byte-identical across serial and
// parallel runs; open in Perfetto), and -phases prints each figure's
// aggregation/exchange/storage rank-seconds table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tapioca/internal/expt"
	"tapioca/internal/fault"
	"tapioca/internal/obs"
	"tapioca/internal/tree"
)

// jsonResult is the machine-readable record of one experiment run.
type jsonResult struct {
	ID             string    `json:"id"`
	Title          string    `json:"title"`
	XLabel         string    `json:"xlabel"`
	Labels         []string  `json:"labels"`
	Rows           []jsonRow `json:"rows"`
	Notes          []string  `json:"notes,omitempty"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Workers        int       `json:"workers"`
	// Transfers counts every simulated transfer the figure's measurement
	// cells booked (including intra-node ones) — the quantity the
	// cached-routing and request-coalescing work drives down per simulated
	// byte.
	Transfers int64 `json:"transfers"`
	// FabricMessages counts only the inter-node messages among those
	// transfers — the traffic that crosses the fabric, which intra-node
	// pre-aggregation collapses ppn-fold (see abl-intranode).
	FabricMessages int64 `json:"fabric_messages"`
	// Parks and Switches are the simulation engine's work counters over the
	// figure's measurement cells: blocking waits of simulated ranks, and
	// context switches between them.
	Parks    int64 `json:"parks"`
	Switches int64 `json:"switches"`
	// PeakRSSBytes is the process's peak resident set size when the figure
	// finished (getrusage ru_maxrss). It is a high-water mark of the whole
	// process, so under -experiment all a figure reads at least the
	// figures before it.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
	// Verified reports that this binary's data-plane round-trip smoke
	// (-verify: real payload bytes written through the aggregation pipeline
	// and read back checksum-identical) passed before the experiments ran.
	// Omitted when -verify was not requested.
	Verified bool `json:"verified,omitempty"`
	// VerifyPipelineSeconds and VerifyVerifySeconds split the -verify run's
	// host wall-clock into the pipeline itself (write + read sessions) and
	// the verification work (byte compare + CRC-64 parity, including the
	// store-side checksum). Omitted when -verify was not requested.
	VerifyPipelineSeconds float64 `json:"verify_pipeline_seconds,omitempty"`
	VerifyVerifySeconds   float64 `json:"verify_verify_seconds,omitempty"`
	// Phases breaks the figure's rank-time (virtual seconds summed over
	// ranks and cells) down by pipeline phase: aggregation, exchange,
	// storage.
	Phases map[string]float64 `json:"phases,omitempty"`
	// Metrics is the flight recorder's registry snapshot for this figure's
	// cells: counters (bytes per tier, rounds, transfers), gauges (peak
	// utilization) and histogram stats (link/NIC utilization percentiles,
	// host-side store timings under the nondeterministic "host." prefix).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// TreeLevels and TreeFanIn describe the deepest synthesized aggregation
	// tree across the figure's cells (sessions run with Config.Tree or the
	// -tree flag; zero when every session used a fixed data plane), and
	// TreeLevelMessages breaks the coalesced inter-node puts down per tree
	// level, keyed by depth ("1" is the level feeding the root). Together
	// with FabricMessages they quantify what a reduction shape did to the
	// fabric (see abl-tree).
	TreeLevels        int              `json:"tree_levels,omitempty"`
	TreeFanIn         int              `json:"tree_fanin,omitempty"`
	TreeLevelMessages map[string]int64 `json:"tree_level_fabric_messages,omitempty"`
	// Faults and Recovery are the fault-plane event counters ("fault." and
	// "recovery." prefixes of the metrics snapshot): injected transients,
	// latency spikes, retransmits, corruptions and aggregator deaths on the
	// fault side; retries, backoff time, failovers, replayed/degraded rounds
	// and repaired extents on the recovery side. Present only when fault
	// injection ran (-faults, or the abl-faults chaos experiment).
	Faults   map[string]int64 `json:"faults,omitempty"`
	Recovery map[string]int64 `json:"recovery,omitempty"`
}

// splitFaultCounters extracts the fault-plane blocks from a metrics snapshot.
func splitFaultCounters(snap *obs.Snapshot) (faults, recovery map[string]int64) {
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "fault."):
			if faults == nil {
				faults = map[string]int64{}
			}
			faults[strings.TrimPrefix(name, "fault.")] = v
		case strings.HasPrefix(name, "recovery."):
			if recovery == nil {
				recovery = map[string]int64{}
			}
			recovery[strings.TrimPrefix(name, "recovery.")] = v
		}
	}
	return faults, recovery
}

// treeStats extracts the aggregation-tree block from a metrics snapshot: the
// deepest tree's level count and fan-in, and the per-level coalesced message
// counters keyed by depth.
func treeStats(snap *obs.Snapshot) (levels, fanin int, perLevel map[string]int64) {
	levels = int(snap.Gauges["tapioca.tree.levels"])
	fanin = int(snap.Gauges["tapioca.tree.fanin"])
	for name, v := range snap.Counters {
		if rest, ok := strings.CutPrefix(name, "tapioca.tree.level."); ok {
			if perLevel == nil {
				perLevel = map[string]int64{}
			}
			perLevel[strings.TrimSuffix(rest, ".messages")] = v
		}
	}
	return levels, fanin, perLevel
}

// fmtLevels renders the per-level message map as "1:960 2:240", shallowest
// level (feeding the root) first.
func fmtLevels(perLevel map[string]int64) string {
	keys := make([]string, 0, len(perLevel))
	for k := range perLevel {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, _ := strconv.Atoi(keys[i])
		b, _ := strconv.Atoi(keys[j])
		return a < b
	})
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, perLevel[k])
	}
	return strings.Join(parts, " ")
}

type jsonRow struct {
	X      float64   `json:"x"`
	Values []float64 `json:"values"`
}

// mb formats bytes as mebibytes for the console line.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func main() {
	// Batch workload: trade heap headroom for fewer GC cycles (simulations
	// churn short-lived per-round state across tens of thousands of
	// goroutine stacks, and every cycle re-scans them). An explicit GOGC
	// still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body over explicit arguments and output streams; it returns
// the exit code: 2 for a bad flag value, 1 for a failed run or output.
// Returning it (instead of os.Exit inline) lets the profile writers' defers
// fire on error paths, so -cpuprofile and -memprofile files are valid even
// when a flag or output path is bad.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapiocabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		id       = fs.String("experiment", "all", "experiment id (fig7…fig14, table1, abl-*, a *-full variant, or all)")
		scale    = fs.String("scale", "reduced", "experiment scale: reduced or full (paper node counts)")
		csvDir   = fs.String("csv", "", "also write CSV files into this directory")
		jsonPath = fs.String("json", "", "also write all results as JSON to this file")
		workers  = fs.Int("workers", 0, "width of the worker pool each figure's independent grid cells run on (0 = GOMAXPROCS, 1 = serial; identical results)")
		profile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		verify   = fs.Bool("verify", false, "run the data-plane round-trip smoke (real bytes, checksum-verified) before the experiments")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON flight recording to this file (open in Perfetto)")
		phases   = fs.Bool("phases", false, "print a per-figure phase breakdown table (aggregation/exchange/storage rank-seconds)")
		faults   = fs.String("faults", "", "arm deterministic fault injection for every cell as \"seed,rate\" (e.g. 7,0.05)")
		treePlan = fs.String("tree", "", "arm an aggregation-tree shape for every cell (flat, staged, group, chain, fanin:k)")
		recovery = fs.Bool("recovery", true, "with -faults: arm the self-healing machinery (retry, failover, degraded writes, repair)")
		short    = fs.Bool("short", false, "shrink the abl-faults chaos sweep to its CI smoke subset")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	env := expt.Env{Workers: *workers, NoRecovery: !*recovery, Short: *short}
	if *faults != "" {
		seed, rate, err := parseFaults(*faults)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cfg := fault.Profile(seed, rate)
		env.Faults = &cfg
	}
	if *treePlan != "" {
		sh, err := tree.ParseShape(*treePlan)
		if err != nil {
			fmt.Fprintf(stderr, "-tree: %v\n", err)
			return 2
		}
		env.Tree = &sh
	}

	switch *scale {
	case "reduced":
	case "full":
		env.Full = true
	default:
		fmt.Fprintf(stderr, "unknown -scale %q (want reduced or full)\n", *scale)
		return 2
	}

	if *profile != "" {
		pf, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			pf, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer pf.Close()
			if err := pprof.Lookup("allocs").WriteTo(pf, 0); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		for _, s := range expt.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.ID, s.Title)
		}
		for _, s := range expt.FullScale() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.ID, s.Title)
		}
		for _, s := range expt.DataPlane() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.ID, s.Title)
		}
		for _, s := range expt.Chaos() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.ID, s.Title)
		}
		return 0
	}

	var specs []expt.Spec
	if *id == "all" {
		if env.Full {
			// The registered full-scale variants: paper node counts, each
			// finishing in minutes on one core.
			specs = expt.FullScale()
		} else {
			specs = expt.All()
		}
	} else {
		s := expt.ByID(*id)
		if s == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", *id)
			return 2
		}
		specs = []expt.Spec{*s}
	}

	// -trace records full event streams; -json and -phases only need the
	// metrics/phase side of the recorder (far cheaper). Either way the hot
	// paths see one nil/bool check per phase boundary.
	if *trace != "" {
		env.Observer = expt.NewObserver(true)
	} else if *jsonPath != "" || *phases {
		env.Observer = expt.NewObserver(false)
	}

	verified := false
	var verifyStats expt.VerifyStats
	if *verify {
		var err error
		if verifyStats, err = expt.VerifyDataPlaneStats(env); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		verified = true
		fmt.Fprintf(stdout, "data plane verified: write→read round trip checksum-identical on both platforms (pipeline %.2fs, verification %.2fs)\n\n",
			verifyStats.PipelineSeconds, verifyStats.VerifySeconds)
	}

	var records []jsonResult
	if verified && *jsonPath != "" {
		// The -verify run's own flight-recorder metrics (including the
		// pipeline/verify wall-clock split and the capture-truncation
		// count) become a synthetic leading record.
		if snap := env.Observer.Metrics("verify").Snapshot(); !snap.Empty() {
			records = append(records, jsonResult{
				ID:                    "verify",
				Title:                 "Data-plane round-trip verification (flight-recorder metrics)",
				Verified:              true,
				VerifyPipelineSeconds: verifyStats.PipelineSeconds,
				VerifyVerifySeconds:   verifyStats.VerifySeconds,
				Metrics:               &snap,
			})
		}
	}
	for _, s := range specs {
		start := time.Now()
		res, counts, err := runSpec(s, env)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprint(stdout, expt.Render(res))
		rss := peakRSSBytes()
		fmt.Fprintf(stdout, "(wall time %.1fs, %d workers, %d transfers, %d fabric messages, %d parks, %d switches, peak RSS %.0f MiB)\n",
			elapsed, env.Width(), counts.Transfers, counts.FabricMessages, counts.Parks, counts.Switches, mb(rss))
		snap := env.Observer.Metrics(s.ID).Snapshot()
		if levels, fanin, perLevel := treeStats(&snap); levels > 0 {
			fmt.Fprintf(stdout, "(aggregation tree: %d levels, max fan-in %d, per-level fabric messages %s)\n",
				levels, fanin, fmtLevels(perLevel))
		}
		fmt.Fprintln(stdout)
		if *phases {
			if tbl := env.Observer.PhaseTable(s.ID); tbl != "" {
				fmt.Fprintln(stdout, tbl)
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			path := filepath.Join(*csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(expt.CSV(res)), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if *jsonPath != "" {
			rec := jsonResult{
				ID:             res.ID,
				Title:          res.Title,
				XLabel:         res.XLabel,
				Labels:         res.Labels,
				Notes:          res.Notes,
				ElapsedSeconds: elapsed,
				Workers:        env.Width(),
				Transfers:      counts.Transfers,
				FabricMessages: counts.FabricMessages,
				Parks:          counts.Parks,
				Switches:       counts.Switches,
				PeakRSSBytes:   rss,
				Verified:       verified,
			}
			if verified {
				rec.VerifyPipelineSeconds = verifyStats.PipelineSeconds
				rec.VerifyVerifySeconds = verifyStats.VerifySeconds
			}
			rec.Phases = env.Observer.PhaseSeconds(s.ID)
			if !snap.Empty() {
				rec.Metrics = &snap
				rec.Faults, rec.Recovery = splitFaultCounters(&snap)
				rec.TreeLevels, rec.TreeFanIn, rec.TreeLevelMessages = treeStats(&snap)
			}
			for _, row := range res.Rows {
				rec.Rows = append(rec.Rows, jsonRow{X: row.X, Values: row.Values})
			}
			records = append(records, rec)
		}
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *trace != "" {
		if err := writeTrace(stdout, *trace, env.Observer.Trace()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// runSpec runs one experiment. A measurement cell that fails (a session
// error such as a dead aggregator without recovery, a deadlock, the
// watchdog) panics out of the figure with its *expt.CellError; runSpec
// returns that error, so the run ends on one diagnosed line. Any other
// panic is a bug and keeps its stack trace.
func runSpec(s expt.Spec, env expt.Env) (res expt.Result, counts expt.Counts, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*expt.CellError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	res, counts = s.Run(env)
	return res, counts, nil
}

// parseFaults parses the -faults "seed,rate" argument.
func parseFaults(s string) (uint64, float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-faults wants \"seed,rate\", got %q", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-faults seed: %v", err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-faults rate: %v", err)
	}
	// Written so NaN fails too: every comparison with NaN is false.
	if !(rate >= 0 && rate <= 1) {
		return 0, 0, fmt.Errorf("-faults rate %g outside [0, 1]", rate)
	}
	return seed, rate, nil
}

// writeTrace writes the session's merged flight recording in Chrome
// trace-event JSON, then re-reads the file and parses it — the trace is only
// reported as written once it is known to be valid JSON with events in it.
func writeTrace(stdout io.Writer, path string, tr *obs.Trace) error {
	if tr == nil || tr.NumEvents() == 0 {
		return fmt.Errorf("tapiocabench: no trace events recorded (nothing ran?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("tapiocabench: trace %s is not valid JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("tapiocabench: trace %s has no events", path)
	}
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(stdout, "trace: %d events over the per-cell cap were dropped\n", n)
	}
	fmt.Fprintf(stdout, "trace: %d events across %d cells -> %s (open in https://ui.perfetto.dev)\n",
		tr.NumEvents(), tr.NumCells(), path)
	return nil
}
