package storage

import (
	"fmt"

	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// GPFS lock modes.
const (
	// LockExclusive is the default GPFS byte-range token behaviour: a block
	// written by different nodes bounces its write token, paying a
	// revocation each time ownership moves.
	LockExclusive = iota
	// LockShared models the Mira tuning the paper applies ("reducing lock
	// contention by sharing file locks"): no token bouncing.
	LockShared
)

// GPFS calibration of the Mira-like model, chosen so a Pset's measured peak
// matches the paper (≈2.8 GB/s per Pset; 89.6 GB/s on 4,096 nodes). The
// link rates — each bridge-node→ION link and each ION's uplink to storage —
// are the torus's Bandwidth(LevelIOUplink) and Bandwidth(LevelStorage), the
// same values the cost model prices.
const (
	// gpfsBlockSize is the GPFS block (and lock) granularity: 8 MB.
	gpfsBlockSize int64 = 8 << 20
	// gpfsFileBW is the per-file backend ceiling: a single shared file
	// cannot exceed it regardless of Pset count (GPFS allocation maps one
	// file onto a bounded NSD set), which is why the paper's Mira
	// experiments use file-per-Pset subfiling. 13 GB/s.
	gpfsFileBW float64 = 13e9
	// gpfsBackendBW is the global file system ceiling: 240 GB/s.
	gpfsBackendBW float64 = 240e9
	// gpfsPerOpOverhead is the server-side cost per write/read call: 250 µs.
	gpfsPerOpOverhead int64 = 250 * sim.Microsecond
	// gpfsPerRunCost is the client/forwarder cost per contiguous run within
	// a call (marshaling tiny strided runs is what makes unsieved AoS
	// writes catastrophic): 1.5 µs.
	gpfsPerRunCost int64 = 1500
	// gpfsLockRevocation is the per-block token-bounce penalty: 500 µs.
	gpfsLockRevocation int64 = 500 * sim.Microsecond
	// gpfsTokenRevoke is paid in exclusive mode whenever the writing node
	// of a file changes: the previous holder's write token is revoked and
	// its cached dirty data written back. With many aggregators
	// interleaving rounds this dominates — the contention the paper's "lock
	// sharing" tuning removes. 10 ms.
	gpfsTokenRevoke int64 = 10 * sim.Millisecond
	// gpfsReadTokenGrant is paid in exclusive mode for each (node, block)
	// read token acquisition: 500 µs.
	gpfsReadTokenGrant int64 = 500 * sim.Microsecond
	// gpfsReadFactor scales read bandwidth relative to write: 1.25.
	gpfsReadFactor float64 = 1.25
)

// GPFSConfig selects the Mira-like GPFS model's lock behaviour; the rest of
// its calibration is fixed.
type GPFSConfig struct {
	// LockMode is LockExclusive (default) or LockShared.
	LockMode int
}

// GPFS models the Mira storage path: compute node → (torus) → bridge node →
// ION → GPFS backend, with block-granular write tokens.
type GPFS struct {
	lockMode int
	topo     *topology.Torus5D
	fab      *netsim.Fabric

	bridgeLinks [][2]*sim.GapResource // per Pset
	ionUplink   []*sim.GapResource    // per Pset
	backend     *sim.GapResource

	files map[string]*File

	segScratch []Seg   // reusable compaction buffer (engine procs are serial)
	bridgeOf   []int32 // per-node nearest-bridge cache (-1 = unfilled)
}

type gpfsFile struct {
	fileRes    *sim.GapResource // per-file backend ceiling
	blockOwner map[int64]int    // block index → last writer node
	lastWriter int              // last node to write the file (token holder)
	readGrants map[int64]bool   // (block<<20|node) read tokens granted
}

// NewGPFS builds a GPFS model attached to a BG/Q torus and its fabric.
func NewGPFS(topo *topology.Torus5D, fab *netsim.Fabric, cfg GPFSConfig) *GPFS {
	g := &GPFS{lockMode: cfg.LockMode, topo: topo, fab: fab, files: map[string]*File{}}
	psets := topo.IONodes()
	bridgeBW, ionBW := topo.Bandwidth(topology.LevelIOUplink), topo.Bandwidth(topology.LevelStorage)
	g.bridgeLinks = make([][2]*sim.GapResource, psets)
	g.ionUplink = make([]*sim.GapResource, psets)
	for i := 0; i < psets; i++ {
		g.bridgeLinks[i][0] = sim.NewGapResource(fmt.Sprintf("bridge-%d-0", i), bridgeBW)
		g.bridgeLinks[i][1] = sim.NewGapResource(fmt.Sprintf("bridge-%d-1", i), bridgeBW)
		g.ionUplink[i] = sim.NewGapResource(fmt.Sprintf("ion-%d", i), ionBW)
	}
	g.backend = sim.NewGapResource("gpfs-backend", gpfsBackendBW)
	g.bridgeOf = make([]int32, topo.Nodes())
	for i := range g.bridgeOf {
		g.bridgeOf[i] = -1
	}
	return g
}

// nearestBridge memoizes topo.NearestBridge per node: every flush from a
// node resolves the same bridge, and the torus distance math is on the
// per-flush hot path.
func (g *GPFS) nearestBridge(node int) int {
	if b := g.bridgeOf[node]; b >= 0 {
		return int(b)
	}
	b := g.topo.NearestBridge(node)
	g.bridgeOf[node] = int32(b)
	return b
}

func (g *GPFS) Name() string { return "gpfs" }

func (g *GPFS) Create(name string, opt FileOptions) *File {
	f := &File{Name: name, Opt: opt, impl: &gpfsFile{
		fileRes:    sim.NewGapResource("gpfs-file-"+name, gpfsFileBW),
		blockOwner: map[int64]int{},
		lastWriter: -1,
		readGrants: map[int64]bool{},
	}}
	g.files[name] = f
	return f
}

func (g *GPFS) Lookup(name string) *File { return g.files[name] }

// OptimalUnit is the GPFS block size.
func (g *GPFS) OptimalUnit(f *File) int64 { return gpfsBlockSize }

// reserve books one transfer (write or read) through the storage path and
// returns its completion time.
func (g *GPFS) reserve(now int64, node int, f *File, segs []Seg, read bool) int64 {
	gf := f.impl.(*gpfsFile)
	bytes := TotalBytes(segs)
	if bytes == 0 {
		return now + gpfsPerOpOverhead
	}
	// Compaction keeps the block-token walk and per-run marshaling over whole
	// patterns rather than window-clipping fragments; the run set (hence the
	// price) is unchanged.
	g.segScratch = CompactInto(g.segScratch, segs)
	segs = g.segScratch
	runs := TotalRuns(segs)
	pset := g.topo.IONodeOf(node)

	// Client-side marshaling of the runs.
	t := now + runs*gpfsPerRunCost

	// Torus hop to the nearest bridge node (contends with application
	// traffic on the fabric).
	bridge := g.nearestBridge(node)
	bridgeIdx := 0
	if bridge != g.topo.BridgeNodes(pset)[0] {
		bridgeIdx = 1
	}
	_, arrival := g.fab.Reserve(t, node, bridge, bytes)

	// Bridge link to the ION.
	_, t1 := g.bridgeLinks[pset][bridgeIdx].Reserve(arrival, bytes)

	// Token (lock) traffic in exclusive mode. The delay occupies the ION
	// (token negotiation stalls the forwarding pipeline), so it costs
	// throughput, not just latency.
	var lockDelay int64
	if g.lockMode == LockExclusive {
		lo, hi := SpanAll(segs)
		if read {
			for b := lo / gpfsBlockSize; b <= (hi-1)/gpfsBlockSize; b++ {
				key := b<<20 | int64(node)
				if !gf.readGrants[key] {
					gf.readGrants[key] = true
					lockDelay += gpfsReadTokenGrant
				}
			}
		} else {
			if gf.lastWriter != node {
				if gf.lastWriter >= 0 {
					lockDelay += gpfsTokenRevoke
				}
				gf.lastWriter = node
			}
			for b := lo / gpfsBlockSize; b <= (hi-1)/gpfsBlockSize; b++ {
				if owner, ok := gf.blockOwner[b]; ok && owner != node {
					lockDelay += gpfsLockRevocation
				}
				gf.blockOwner[b] = node
			}
		}
	}

	// ION uplink: per-op overhead plus token stalls plus forwarded bytes.
	rate := g.topo.Bandwidth(topology.LevelStorage)
	if read {
		rate *= gpfsReadFactor
	}
	dur := gpfsPerOpOverhead + lockDelay + sim.TransferTime(bytes, rate)
	_, t2 := g.ionUplink[pset].ReserveDur(t1, dur, bytes)

	// Per-file ceiling, then the global backend.
	fileRate := gpfsFileBW
	backRate := gpfsBackendBW
	if read {
		fileRate *= gpfsReadFactor
		backRate *= gpfsReadFactor
	}
	_, t3 := gf.fileRes.ReserveDur(t2, sim.TransferTime(bytes, fileRate), bytes)
	_, t4 := g.backend.ReserveDur(t3, sim.TransferTime(bytes, backRate), bytes)
	return t4
}

// EstimateFlush prices a single client stream analytically, mirroring
// reserve's staged path: per-run marshaling, the per-op server overhead, and
// the bytes through the slowest stage a lone stream sees (its bridge link).
// Lock traffic is not charged — the autotuner targets the shared-lock,
// aligned configurations where it vanishes.
func (g *GPFS) EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64 {
	if bytes <= 0 {
		return sim.ToSeconds(gpfsPerOpOverhead)
	}
	ion := g.topo.Bandwidth(topology.LevelStorage)
	if read {
		ion *= gpfsReadFactor
	}
	rate := g.topo.Bandwidth(topology.LevelIOUplink)
	if ion < rate {
		rate = ion
	}
	return sim.ToSeconds(runs*gpfsPerRunCost+gpfsPerOpOverhead) + float64(bytes)/rate
}

// AggregateBandwidth is the concurrent-flush ceiling for one shared file:
// every Pset's bridge links and ION uplink in parallel, capped by the
// per-file backend limit — the single-shared-file bound that motivates the
// paper's file-per-Pset subfiling.
func (g *GPFS) AggregateBandwidth(opt FileOptions, read bool) float64 {
	psets := float64(g.topo.IONodes())
	ion, file, back := g.topo.Bandwidth(topology.LevelStorage), gpfsFileBW, gpfsBackendBW
	if read {
		ion *= gpfsReadFactor
		file *= gpfsReadFactor
		back *= gpfsReadFactor
	}
	agg := psets * 2 * g.topo.Bandwidth(topology.LevelIOUplink)
	for _, cap := range []float64{psets * ion, file, back} {
		if cap < agg {
			agg = cap
		}
	}
	return agg
}

// AlignUnit is the GPFS block size regardless of options.
func (g *GPFS) AlignUnit(opt FileOptions) int64 { return gpfsBlockSize }

// RecommendStripe returns platform defaults: GPFS stripes every file over
// its NSDs by block, with nothing to tune at creation.
func (g *GPFS) RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions {
	return FileOptions{}
}

// book prices a sieved write as a read-modify-write of the contiguous span:
// the span is read and written back while the file records the logical
// segments.
func (g *GPFS) book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (int64, string, []Seg) {
	now := p.Now()
	if op == OpRead {
		f.recordRead(segs)
		return g.reserve(now, node, f, segs, true), "gpfs-read", segs
	}
	f.recordWrite(node, now, segs)
	if op == OpWrite {
		return g.reserve(now, node, f, segs, false), "gpfs-write", segs
	}
	lo, hi := SpanAll(segs)
	span := []Seg{Contig(lo, hi-lo)}
	f.bytesRead += hi - lo
	tRead := g.reserve(now, node, f, span, true)
	return g.reserve(tRead, node, f, span, false), "gpfs-write-sieved", span
}
