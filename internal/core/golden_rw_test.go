package core

// Golden virtual results for write-then-read sessions. Each case runs one
// write session and then one read session over the same declared pattern
// and file, and pins per session the virtual end time, the fabric's
// transfer, message and staging-copy counters, the ranks' summed Stats, the
// file's I/O counters, a digest of the metrics snapshot and, with the data
// plane on, the CRCs of the landed file and of the bytes read back. The
// cases aim at the per-round participation of the pipelines: IOR-shaped
// blocks where few members contribute to each of many rounds, a member whose
// pieces skip a round, ranks with no operations, the single-buffer ablation,
// the data plane, a node-interleaving Split and a Mira torus on GPFS. Every
// case also runs without a flight recorder and must print the same lines,
// metrics aside. Regenerate (only for an intended change of virtual
// behaviour) with
//
//	go test ./internal/core -run TestGoldenReadWriteResults -update

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/mpi"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

const goldenRWFile = "testdata/golden_rw.txt"

type rwCase struct {
	name  string
	rpn   int
	decl  func(ranks int) [][][]storage.Seg
	cfg   Config
	data  bool // data plane on: real bytes, CRCs of the file and the read-back
	torus bool // 16-node BG/Q torus with 4-node Psets and GPFS
	// key, when set, orders the ranks of a single-color Split the sessions
	// run on.
	key func(rank, rpn, ranks int) int
}

// iorDecl gives every rank one contiguous block, ranks back to back, with
// sizes that vary by rank so blocks straddle round boundaries: with small
// buffers each round gathers from two or three members only.
func iorDecl(ranks int) [][][]storage.Seg {
	decl := make([][][]storage.Seg, ranks)
	var off int64
	for r := range decl {
		n := int64(2048 + (r%5)*512)
		decl[r] = [][]storage.Seg{{storage.Contig(off, n)}}
		off += n
	}
	return decl
}

// skipDecl lays the file out in groups of eight ranks and three 8 KiB
// windows: the group's first four ranks fill the first window, the other
// four the second, and the first four again the third with a second 2 KiB
// block each. Those four ranks have pieces in rounds r and r+2 but not r+1.
func skipDecl(ranks int) [][][]storage.Seg {
	decl := make([][][]storage.Seg, ranks)
	var off int64
	place := func(r int) {
		if r >= ranks {
			return
		}
		if len(decl[r]) == 0 {
			decl[r] = [][]storage.Seg{nil}
		}
		decl[r][0] = append(decl[r][0], storage.Contig(off, 2<<10))
		off += 2 << 10
	}
	for g := 0; g < ranks; g += 8 {
		for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3} {
			place(g + i)
		}
	}
	return decl
}

// zeroOpDecl is iorDecl with every third rank declaring no operations and
// every seventh declaring one operation over no bytes.
func zeroOpDecl(ranks int) [][][]storage.Seg {
	decl := iorDecl(ranks)
	for r := range decl {
		switch {
		case r%3 == 1:
			decl[r] = nil
		case r%7 == 2:
			decl[r] = [][]storage.Seg{{}}
		}
	}
	return decl
}

// interleaveNodes orders a Split's ranks round-robin over the nodes, so
// consecutive comm ranks — one partition's members — sit on different nodes.
func interleaveNodes(rank, rpn, ranks int) int {
	nodes := ranks / rpn
	return (rank%rpn)*nodes + rank/rpn
}

func goldenRWCases() []rwCase {
	base := Config{Aggregators: 2, BufferSize: 8 << 10}
	with := func(f func(c *Config)) Config {
		c := base
		f(&c)
		return c
	}
	staged := tree.Shape{Kind: tree.NodeStaged}
	return []rwCase{
		{name: "ior", rpn: 4, decl: iorDecl, cfg: base},
		{name: "ior-skip", rpn: 4, decl: skipDecl, cfg: base},
		{name: "ior-zero-op", rpn: 4, decl: zeroOpDecl, cfg: base},
		{name: "ior-single", rpn: 4, decl: skipDecl, cfg: with(func(c *Config) { c.SingleBuffer = true })},
		{name: "ior-staged", rpn: 4, decl: skipDecl, cfg: with(func(c *Config) { c.Tree = &staged })},
		{name: "dataplane-skip", rpn: 4, decl: skipDecl, data: true, cfg: base},
		{name: "split-interleave", rpn: 4, decl: skipDecl, key: interleaveNodes, cfg: base},
		{name: "torus-gpfs", rpn: 4, decl: skipDecl, torus: true, cfg: with(func(c *Config) { c.Aggregators = 4 })},
	}
}

// rwShape summarizes the schedule's participation pattern: the fewest rounds
// of any partition, the most members contributing to any one round, and how
// many ranks have pieces in some round r and r+2 but none in r+1.
type rwShape struct {
	minRounds, maxContrib, skips int
}

func planShape(p *plan) rwShape {
	s := rwShape{minRounds: -1}
	for pi := range p.parts {
		pp := &p.parts[pi]
		if s.minRounds < 0 || pp.rounds < s.minRounds {
			s.minRounds = pp.rounds
		}
		contrib := make([]int, pp.rounds)
		for local := 0; local < pp.rankN; local++ {
			last := -1
			skipped := false
			for _, pc := range p.piecesOf(pp.rankLo + local) {
				if pc.round == last {
					continue
				}
				contrib[pc.round]++
				if last >= 0 && pc.round == last+2 {
					skipped = true
				}
				last = pc.round
			}
			if skipped {
				s.skips++
			}
		}
		for _, n := range contrib {
			s.maxContrib = max(s.maxContrib, n)
		}
	}
	return s
}

// rwSession accumulates one session's per-rank results.
type rwSession struct {
	end  int64
	st   Stats
	crcs uint64 // XOR of the ranks' DataChecksum
	line string // counters snapshot taken between the closing barriers
}

func runGoldenRW(t *testing.T, gc rwCase, record bool) []string {
	t.Helper()
	fab, sys := goldenPlatform(gc.torus)
	ranks := goldenNodes * gc.rpn
	decl := gc.decl(ranks)
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(false)
	}
	var (
		mu       sync.Mutex
		failures []string
		file     *storage.File
		shape    rwShape
		sess     [2]rwSession
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var base [4]int64 // fabric counters at the previous snapshot
	snapshot := func(i int, f *storage.File) {
		now := [4]int64{fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers(), fab.TotalBytes()}
		s := &sess[i]
		s.line = fmt.Sprintf("transfers=%d messages=%d local=%d bytes=%d | file written=%d write_ops=%d read=%d read_ops=%d",
			now[0]-base[0], now[1]-base[1], now[2]-base[2], now[3]-base[3],
			f.BytesWritten(), f.WriteOps(), f.BytesRead(), f.ReadOps())
		if rec != nil {
			d, n := metricsDigest(rec.Registry().Snapshot())
			s.line += fmt.Sprintf(" | metrics n=%d digest=%016x", n, d)
		}
		base = now
	}
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: gc.rpn, Fabric: fab, Recorder: rec}, func(w *mpi.Comm) {
		c := w
		if gc.key != nil {
			c = w.Split(0, gc.key(w.Rank(), gc.rpn, w.Size()))
		}
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("golden-rw", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		mine := decl[c.Rank()]
		var src, dst [][]byte
		if gc.data {
			src = workload.FillData(mine, 4242)
			dst = make([][]byte, len(src))
			for i := range src {
				dst[i] = make([]byte, len(src[i]))
			}
		}
		for i := range sess {
			read := i == 1
			wr := New(c, sys, f, gc.cfg)
			var err error
			switch {
			case gc.data && read:
				err = wr.InitData(mine, dst)
			case gc.data:
				err = wr.InitData(mine, src)
			default:
				err = wr.Init(mine)
			}
			if err == nil && !read && c.Rank() == 0 {
				mu.Lock()
				shape = planShape(wr.plan)
				mu.Unlock()
			}
			if err == nil {
				if read {
					err = wr.ReadAll()
				} else {
					err = wr.WriteAll()
				}
			}
			if err != nil {
				fail("rank %d session %d: %v", w.Rank(), i, err)
			}
			s := wr.Stats()
			mu.Lock()
			sess[i].end = max(sess[i].end, c.Now())
			sess[i].st.BytesPut += s.BytesPut
			sess[i].st.BytesFlushed += s.BytesFlushed
			sess[i].st.Flushes += s.Flushes
			sess[i].st.Rounds += s.Rounds
			sess[i].crcs ^= wr.DataChecksum()
			mu.Unlock()
			// Every session ends before the snapshot, and nobody books
			// anything until the second barrier releases.
			w.Barrier()
			if w.Rank() == 0 {
				mu.Lock()
				snapshot(i, f)
				file = f
				mu.Unlock()
			}
			w.Barrier()
		}
		if gc.data {
			for i := range src {
				if !bytes.Equal(src[i], dst[i]) {
					fail("rank %d: op %d read back different bytes", w.Rank(), i)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	for _, f := range failures {
		t.Errorf("%s: %s", gc.name, f)
	}
	lines := []string{fmt.Sprintf("%s: plan min_rounds=%d max_contrib=%d skips=%d",
		gc.name, shape.minRounds, shape.maxContrib, shape.skips)}
	for i, s := range sess {
		name := [2]string{"write", "read"}[i]
		l := fmt.Sprintf("%s %s: end t=%d put=%d flushed=%d flushes=%d rank_rounds=%d | %s",
			gc.name, name, s.end, s.st.BytesPut, s.st.BytesFlushed, s.st.Flushes, s.st.Rounds, s.line)
		if gc.data {
			l += fmt.Sprintf(" | rank_crcs=%016x", s.crcs)
		}
		lines = append(lines, l)
	}
	if gc.data {
		lines = append(lines, fmt.Sprintf("%s: file crc=%016x", gc.name, landedCRC(t, gc.name, file, decl)))
	}
	return lines
}

// stripMetrics drops the metrics field a recorder-less run cannot print.
func stripMetrics(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		if j := strings.Index(l, " | metrics "); j >= 0 {
			k := strings.Index(l[j+1:], " | ")
			if k < 0 {
				l = l[:j]
			} else {
				l = l[:j] + l[j+1+k:]
			}
		}
		out[i] = l
	}
	return out
}

// TestGoldenReadWriteResults pins write-then-read sessions against
// testdata/golden_rw.txt, and checks that each case's declared pattern has
// the participation shape it is there for.
func TestGoldenReadWriteResults(t *testing.T) {
	var got []string
	for _, gc := range goldenRWCases() {
		lines := runGoldenRW(t, gc, true)
		plain := runGoldenRW(t, gc, false)
		if want := stripMetrics(lines); strings.Join(plain, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: the recorder changed the sessions:\n with: %v\n without: %v", gc.name, want, plain)
		}
		got = append(got, lines...)
	}
	checkGolden(t, goldenRWFile, got)
}
