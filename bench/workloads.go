package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"

	"tapioca/internal/core"
	"tapioca/internal/cost"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/tune"
	"tapioca/internal/workload"
)

// params are a run's input choices.
type params struct {
	seed  uint64
	smoke bool // tiny sizes for the self-test
	// flipStoreByte corrupts one stored byte after every data-plane write,
	// so the self-test can show the checksum comparison catches it.
	flipStoreByte bool
}

// workloadSpec is one benchmark input set. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadSpec struct {
	name string
	// prepare generates the inputs from the seed (the harness's own cost,
	// reported as bench.gen_s) and returns the function that runs one pass
	// over them, plus the inputs of the layer micro-benchmarks.
	prepare func(pr params) (func(*pass), microInputs)
}

// microInputs is what the layer micro-benchmarks take from a workload: its
// platform and one session's declared pattern and configuration.
type microInputs struct {
	m    machine
	decl [][][]storage.Seg // per rank
	cfg  core.Config
	fopt storage.FileOptions
}

var workloads = []workloadSpec{
	{"hacc-tapioca", haccTapioca},
	{"hacc-mpiio", haccMPIIO},
	{"ior-mira-rw", iorMiraRW},
	{"strided-tree-lossy", stridedTreeLossy},
	{"dataplane-rw", dataplaneRW},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// perRank returns n per-rank sizes around base. Seed 1 is the paper's
// uniform configuration. Other seeds move each pair of neighbouring ranks
// apart by up to 5% of base, so the total, and with it the amount of work,
// stays the same while the layout changes.
func perRank(n int, base int64, seed, salt uint64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base
	}
	if seed == 1 {
		return out
	}
	rng := rand.New(rand.NewPCG(seed, salt))
	for i := 0; i+1 < n; i += 2 {
		d := int64(rng.Float64() * 0.05 * float64(base))
		out[i] += d
		out[i+1] -= d
	}
	return out
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// haccDecl returns every rank's declared HACC-IO pattern for one shared file,
// rank r holding particles[r] particles. With equal counts it is exactly
// workload.HACCDeclared.
func haccDecl(particles []int64, layout int) [][][]storage.Seg {
	total := sum(particles)
	out := make([][][]storage.Seg, len(particles))
	var before int64 // particles held by lower ranks
	for r, n := range particles {
		decl := make([][]storage.Seg, len(workload.HACCVarSizes))
		var fieldOff, regionOff int64
		for v, sz := range workload.HACCVarSizes {
			if layout == workload.AoS {
				decl[v] = []storage.Seg{storage.Strided(before*workload.ParticleBytes+fieldOff, sz, workload.ParticleBytes, n)}
				fieldOff += sz
			} else {
				decl[v] = []storage.Seg{storage.Contig(regionOff+before*sz, n*sz)}
				regionOff += total * sz
			}
		}
		out[r] = decl
		before += n
	}
	return out
}

// openShared creates the file on rank 0 and shares the handle.
func openShared(c *mpi.Comm, sys storage.System, name string, opt storage.FileOptions) *storage.File {
	var f *storage.File
	if c.Rank() == 0 {
		f = sys.Create(name, opt)
	}
	return c.Bcast(0, 32, f).(*storage.File)
}

// must turns a session error into a rank panic, which the simulation engine
// reports as the cell's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// haccCase is one HACC-IO session of a pass.
type haccCase struct {
	name   string
	decl   [][][]storage.Seg
	volume int64
}

// haccCases generates the AoS and SoA patterns at each particle count.
func haccCases(ranks int, particleCounts []int64, seed uint64) []haccCase {
	var cases []haccCase
	for i, n := range particleCounts {
		parts := perRank(ranks, n, seed, uint64(i))
		for _, layout := range []int{workload.AoS, workload.SoA} {
			cases = append(cases, haccCase{
				name:   fmt.Sprintf("%s-%dk", workload.LayoutName(layout), n/1000),
				decl:   haccDecl(parts, layout),
				volume: sum(parts) * workload.ParticleBytes,
			})
		}
	}
	return cases
}

// haccTheta returns the Theta HACC-IO configuration of Figs. 13-14 at the
// given node count: 16 ranks per node, 12 OSTs with 16 MiB stripes, 16 MiB
// aggregation buffers, aggPerOST aggregators (TAPIOCA) or collective-
// buffering nodes (MPI-IO) per OST, 25K and 100K particles per rank.
func haccTheta(pr params, nodes, aggPerOST int) (m machine, aggs int, particles []int64) {
	m = machine{nodes: nodes, rpn: 16, osts: 12}
	particles = []int64{25_000, 100_000}
	if pr.smoke {
		m = machine{nodes: 8, rpn: 4, osts: 2}
		particles = []int64{500, 2_000}
	}
	return m, aggPerOST * m.osts, particles
}

// haccTapioca is Fig. 14's TAPIOCA arm at the reduced scale `tapiocabench
// -experiment fig14` runs: 256 nodes, 96 aggregators.
func haccTapioca(pr params) (func(*pass), microInputs) {
	m, aggs, particles := haccTheta(pr, 256, 8)
	cases := haccCases(m.ranks(), particles, pr.seed)
	fopt := storage.FileOptions{StripeCount: m.osts, StripeSize: 16 << 20}
	cfg := core.Config{Aggregators: aggs, BufferSize: 16 << 20}
	run := func(p *pass) {
		for _, hc := range cases {
			p.run(cell{
				name: "tapioca/" + hc.name, m: m, sessions: 1,
				files: map[string]expect{"hacc": {hc.volume, 0}},
				body: func(c *mpi.Comm, pl *platform, sw *stopwatch) {
					f := openShared(c, pl.sys, "hacc", fopt)
					sw.started(c)
					w := core.New(c, pl.sys, f, cfg)
					must(w.Init(hc.decl[c.Rank()]))
					sw.lap(c, "core.init")
					must(w.WriteAll())
					sw.lap(c, "core.write")
				},
			})
		}
	}
	return run, microInputs{m: m, decl: cases[0].decl, cfg: cfg, fopt: fopt}
}

// haccMPIIO is Fig. 13's MPI-IO arm at its reduced scale: 128 nodes, 48
// collective-buffering nodes.
func haccMPIIO(pr params) (func(*pass), microInputs) {
	m, cbNodes, particles := haccTheta(pr, 128, 4)
	cases := haccCases(m.ranks(), particles, pr.seed)
	fopt := storage.FileOptions{StripeCount: m.osts, StripeSize: 16 << 20}
	hints := mpiio.Hints{
		CBNodes: cbNodes, CBBufferSize: 16 << 20,
		Strategy: mpiio.AggrNodeSpread, AlignDomains: true, CyclicDomains: true,
	}
	run := func(p *pass) {
		for _, hc := range cases {
			p.run(cell{
				name: "mpiio/" + hc.name, m: m, sessions: 1,
				files: map[string]expect{"hacc": {hc.volume, -1}},
				body: func(c *mpi.Comm, pl *platform, sw *stopwatch) {
					sw.started(c)
					fh := mpiio.Open(c, pl.sys, "hacc", fopt, hints)
					sw.lap(c, "mpiio.open")
					for _, segs := range hc.decl[c.Rank()] {
						must(fh.WriteAtAll(segs))
					}
					sw.lap(c, "mpiio.write")
				},
			})
		}
	}
	return run, microInputs{m: m, decl: cases[0].decl, cfg: core.Config{Aggregators: cbNodes, BufferSize: 16 << 20}, fopt: fopt}
}

// iorMiraRW writes 4 MiB per rank with TAPIOCA on 256 Mira nodes (two
// Psets, a file per Pset, 16 aggregators and 16 MiB buffers per Pset), then
// reads it back in a fresh session.
func iorMiraRW(pr params) (func(*pass), microInputs) {
	m := machine{mira: true, nodes: 256, rpn: 16}
	perRankBytes := int64(4 << 20)
	if pr.smoke {
		m = machine{mira: true, nodes: 256, rpn: 1}
		perRankBytes = 64 << 10
	}
	cfg := core.Config{Aggregators: 16, BufferSize: 16 << 20}
	if pr.smoke {
		cfg = core.Config{Aggregators: 2, BufferSize: 1 << 20}
	}

	// One file per Pset: each rank writes its block into its Pset's file,
	// after the blocks of the lower ranks of the same Pset.
	topo := topology.MiraTorus(m.nodes)
	sizes := perRank(m.ranks(), perRankBytes, pr.seed, 0)
	psets := make([]int, m.ranks())
	decl := make([][][]storage.Seg, m.ranks())
	fill := map[int]int64{}
	for r := range decl {
		ps := topo.IONodeOf(r / m.rpn)
		psets[r] = ps
		decl[r] = [][]storage.Seg{{storage.Contig(fill[ps], sizes[r])}}
		fill[ps] += sizes[r]
	}
	files := map[string]expect{}
	for ps, n := range fill {
		files[psetFile(ps)] = expect{n, n}
	}

	run := func(p *pass) {
		p.run(cell{
			name: "ior-rw", m: m, sessions: 2, files: files,
			body: func(c *mpi.Comm, pl *platform, sw *stopwatch) {
				ps := psets[c.Rank()]
				g := c.Split(ps, c.Rank())
				f := openShared(g, pl.sys, psetFile(ps), storage.FileOptions{})
				sw.started(c)
				w := core.New(g, pl.sys, f, cfg)
				must(w.Init(decl[c.Rank()]))
				sw.lap(c, "core.init")
				must(w.WriteAll())
				sw.lap(c, "core.write")
				rd := core.New(g, pl.sys, f, cfg)
				must(rd.Init(decl[c.Rank()]))
				sw.lap(c, "core.init")
				must(rd.ReadAll())
				sw.lap(c, "core.read")
			},
		})
	}
	var pset0 [][][]storage.Seg
	for r := range decl {
		if psets[r] == psets[0] {
			pset0 = append(pset0, decl[r])
		}
	}
	return run, microInputs{m: m, decl: pset0, cfg: cfg}
}

func psetFile(ps int) string { return fmt.Sprintf("data-pset%d", ps) }

// stridedTreeLossy is the abl-tree ablation at its reduced scale: 64 Theta
// nodes × 8 ranks, 16 strided 16 KiB blocks per rank, a NullFS storage tier
// and the lossy fabric. For each partition width the tuner searches a tree
// shape, then flat, staged and searched-tree sessions run.
func stridedTreeLossy(pr params) (func(*pass), microInputs) {
	m := machine{nodes: 64, rpn: 8, osts: 12, nullFS: true, lossSeed: 10*pr.seed + 1}
	widths := []int{16, 32, 64}
	blocks, blk := 16, int64(16<<10)
	if pr.smoke {
		m.nodes, m.rpn = 16, 4
		widths = []int{4, 8}
		blocks = 4
	}
	// Strided small blocks: rank r's j-th block sits in the file's j-th band,
	// after the lower ranks' blocks, so every node group sends a small put in
	// every aggregation round, the regime trees exist for.
	sizes := perRank(m.ranks(), blk, pr.seed, 0)
	total := sum(sizes)
	decl := make([][][]storage.Seg, m.ranks())
	var before int64
	for r := range decl {
		segs := make([]storage.Seg, blocks)
		for j := range segs {
			segs[j] = storage.Contig(int64(j)*total+before, sizes[r])
		}
		decl[r] = [][]storage.Seg{segs}
		before += sizes[r]
	}
	volume := total * int64(blocks)
	pattern := workload.Pattern{Name: "strided", Ranks: m.ranks(),
		Declared: func(rank, _ int) [][]storage.Seg { return decl[rank] }}
	// The tuner prices against the clean Lustre platform; its per-message
	// penalty is the lossy regime's expected cost per message.
	tuneM := m
	tuneM.nullFS, tuneM.lossSeed = false, 0

	run := func(p *pass) {
		for _, width := range widths {
			aggs := m.nodes / width
			var shape *tree.Shape
			p.timeHost(tuneM, "tune.search", func(pl *platform) error {
				res, err := tune.TryAutotune(tune.Platform{
					Topo: pl.topo, Dist: pl.dist, Sys: pl.sys, RanksPerNode: m.rpn,
				}, pattern, tune.Options{
					Aggregators:    []int{aggs},
					BufferSizes:    []int64{8 << 20},
					Placements:     []cost.Placement{core.PlacementTopologyAware},
					NoRefine:       true,
					TreeSearch:     true,
					MessagePenalty: lossRate * retransmitRTO * 1e-9,
				})
				switch {
				case res.Config.Tree != nil:
					shape = res.Config.Tree
				case res.Config.IntraNodeStaging:
					shape = &tree.Shape{Kind: tree.NodeStaged}
				default:
					shape = &tree.Shape{Kind: tree.Flat}
				}
				return err
			})
			variants := []struct {
				name string
				cfg  core.Config
			}{
				{"flat", core.Config{Aggregators: aggs, BufferSize: 8 << 20}},
				{"staged", core.Config{Aggregators: aggs, BufferSize: 8 << 20, IntraNodeStaging: true}},
				{"tree", core.Config{Aggregators: aggs, BufferSize: 8 << 20, Tree: shape}},
			}
			for _, v := range variants {
				p.run(cell{
					name: fmt.Sprintf("w%d/%s", width, v.name), m: m, sessions: 1,
					files: map[string]expect{"strided": {volume, 0}},
					body: func(c *mpi.Comm, pl *platform, sw *stopwatch) {
						f := openShared(c, pl.sys, "strided", storage.FileOptions{})
						sw.started(c)
						w := core.New(c, pl.sys, f, v.cfg)
						must(w.Init(decl[c.Rank()]))
						sw.lap(c, "core.init")
						must(w.WriteAll())
						sw.lap(c, "core.write")
					},
				})
			}
		}
	}
	return run, microInputs{m: m, decl: decl, cfg: core.Config{Aggregators: m.nodes / widths[0], BufferSize: 8 << 20}}
}

// dataplaneRW carries real bytes: HACC-IO SoA on 64 Theta nodes × 16 ranks
// at 1,000 particles per rank (39 MB of payload), 8 aggregators, 1 MiB and
// 4 MiB buffers. Each buffer size writes, compares the stored bytes' CRC
// with the writers', and reads back into cleared buffers.
func dataplaneRW(pr params) (func(*pass), microInputs) {
	m := machine{nodes: 64, rpn: 16, osts: 8}
	particles := int64(1_000)
	bufSizes := []int64{1 << 20, 4 << 20}
	aggs := 8
	if pr.smoke {
		m = machine{nodes: 8, rpn: 4, osts: 2}
		particles = 500
		bufSizes = []int64{64 << 10, 256 << 10}
		aggs = 4
	}
	fopt := storage.FileOptions{StripeCount: m.osts, StripeSize: 1 << 20}
	fillSeed := 20170906 + pr.seed
	parts := perRank(m.ranks(), particles, pr.seed, 0)
	decl := haccDecl(parts, workload.SoA)
	volume := sum(parts) * workload.ParticleBytes
	data := make([][][]byte, m.ranks())
	got := make([][][]byte, m.ranks())
	runs := make([][]storage.Seg, m.ranks())
	for r := range decl {
		data[r] = workload.FillData(decl[r], fillSeed)
		got[r] = make([][]byte, len(data[r]))
		for i := range data[r] {
			got[r][i] = make([]byte, len(data[r][i]))
		}
		for _, segs := range decl[r] {
			runs[r] = append(runs[r], segs...)
		}
		sort.Slice(runs[r], func(i, j int) bool { return runs[r][i].Off < runs[r][j].Off })
	}
	crcErr := make([]error, m.ranks())

	run := func(p *pass) {
		for _, buf := range bufSizes {
			cfg := core.Config{Aggregators: aggs, BufferSize: buf}
			for r := range got {
				crcErr[r] = nil
				for _, b := range got[r] {
					clear(b)
				}
			}
			p.bytesMoved["core.write"] += volume
			p.bytesMoved["core.read"] += volume
			p.run(cell{
				name: fmt.Sprintf("buf%dk", buf>>10), m: m, sessions: 2,
				files: map[string]expect{"dataplane": {volume, volume}},
				body: func(c *mpi.Comm, pl *platform, sw *stopwatch) {
					r := c.Rank()
					f := openShared(c, pl.sys, "dataplane", fopt)
					sw.started(c)
					w := core.New(c, pl.sys, f, cfg)
					must(w.InitData(decl[r], data[r]))
					sw.lap(c, "core.init")
					must(w.WriteAll())
					sw.lap(c, "core.write")
					if pr.flipStoreByte && r == 0 {
						flipByte(f)
					}
					crc, err := f.StoreChecksum(runs[r])
					if err == nil && crc != w.DataChecksum() {
						err = fmt.Errorf("rank %d: store checksum %#x != writer checksum %#x", r, crc, w.DataChecksum())
					}
					crcErr[r] = err
					sw.lap(c, "storage.checksum")
					rd := core.New(c, pl.sys, f, cfg)
					must(rd.InitData(decl[r], got[r]))
					sw.lap(c, "core.init")
					must(rd.ReadAll())
					sw.lap(c, "core.read")
				},
				check: func() []error {
					var crcFail, readFail error
					for r := range decl {
						if crcFail == nil {
							crcFail = crcErr[r]
						}
						for i := range data[r] {
							if readFail == nil && !bytes.Equal(got[r][i], data[r][i]) {
								readFail = fmt.Errorf("rank %d operation %d: read-back bytes differ from the written payload", r, i)
							}
						}
					}
					return []error{crcFail, readFail}
				},
			})
		}
	}
	return run, microInputs{m: m, decl: decl, cfg: core.Config{Aggregators: aggs, BufferSize: bufSizes[0]}, fopt: fopt}
}

// flipByte inverts the first stored byte of f.
func flipByte(f *storage.File) {
	b := make([]byte, 1)
	must(f.StoreReadAt(b, 0))
	b[0] ^= 0xff
	must(f.StoreWriteAt(b, 0))
}
