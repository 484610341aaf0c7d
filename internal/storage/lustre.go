package storage

import (
	"fmt"

	"tapioca/internal/netsim"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// Lustre calibration of the Theta-like model: a single write stream gets
// ≈145 MB/s to one OST (latency-bound) and an OST tops out at 0.42 GB/s
// under concurrency — matching the paper's observation that aggregator
// counts of 2–8 per OST are needed to approach peak. Each LNET router's
// InfiniBand link runs at the dragonfly's Bandwidth(LevelStorage).
const (
	// lustreNumOST is the object storage target count on Theta: 56.
	lustreNumOST = 56
	// lustreOSTBandwidth is the per-OST write ceiling: 0.42 GB/s.
	lustreOSTBandwidth float64 = 0.42e9
	// lustreReadFactor scales read bandwidth per OST: 2.0.
	lustreReadFactor float64 = 2.0
	// lustreRPCSize is the Lustre RPC granularity: 1 MB.
	lustreRPCSize int64 = 1 << 20
	// lustreRPCLatency is the per-RPC round-trip seen by one stream; a
	// single stream is latency-bound while concurrent streams fill the
	// gaps. 4.5 ms.
	lustreRPCLatency int64 = 4500 * sim.Microsecond
	// lustreObjectSetup is the per-object stream setup cost within one
	// flush (lock + layout work when a write spans OST objects — the Table
	// I super-stripe penalty): 3 ms.
	lustreObjectSetup int64 = 3 * sim.Millisecond
	// lustreLockRevocation is the extent-lock bounce penalty paid when a
	// stripe last written by another client is written again (the Table I
	// sub-stripe penalty): 1.5 ms.
	lustreLockRevocation int64 = 1500 * sim.Microsecond
	// lustrePerRunCost is the client cost per contiguous run: 1 µs.
	lustrePerRunCost int64 = 1000
	// lustreDefaultStripeCount and lustreDefaultStripeSize apply to files
	// created without explicit options — stripe count 1 and 1 MB stripes,
	// the platform defaults whose poor performance Figure 8 demonstrates.
	lustreDefaultStripeCount       = 1
	lustreDefaultStripeSize  int64 = 1 << 20
)

// LustreConfig sizes the Theta-like Lustre model; the rest of its
// calibration is fixed.
type LustreConfig struct {
	// NumOST is the object storage target count. Default 56, Theta's.
	NumOST int
}

// Lustre models the Theta storage path: compute node → (dragonfly) → LNET
// service node → OSS/OST, with per-file striping and extent locks.
type Lustre struct {
	numOST int
	topo   *topology.Dragonfly
	fab    *netsim.Fabric

	osts []*sim.GapResource
	lnet []*sim.GapResource

	files   map[string]*File
	fileSeq int

	segScratch []Seg // reusable compaction buffer (engine procs are serial)

	// Per-OST chunk scratch reused across reserve calls (engine procs are
	// serial): indexed by OST, with chunkOrder tracking touched entries.
	chunkBytes    []int64
	chunkConflict []int64
	chunkOrder    []int
}

type lustreFile struct {
	stripeCount int
	stripeSize  int64
	ostOffset   int
	stripeOwner map[int64]int // stripe index → last writer node
}

// NewLustre builds a Lustre model attached to a dragonfly and its fabric.
// The dragonfly must have service nodes (they carry LNET traffic).
func NewLustre(topo *topology.Dragonfly, fab *netsim.Fabric, cfg LustreConfig) *Lustre {
	if topo.ServiceNodes == 0 {
		panic("storage: Lustre requires a dragonfly with service nodes")
	}
	numOST := cfg.NumOST
	if numOST <= 0 {
		numOST = lustreNumOST
	}
	l := &Lustre{numOST: numOST, topo: topo, fab: fab, files: map[string]*File{}}
	l.osts = make([]*sim.GapResource, numOST)
	for i := range l.osts {
		l.osts[i] = sim.NewGapResource(fmt.Sprintf("ost-%d", i), lustreOSTBandwidth)
	}
	l.lnet = make([]*sim.GapResource, topo.ServiceNodes)
	for i := range l.lnet {
		l.lnet[i] = sim.NewGapResource(fmt.Sprintf("lnet-ib-%d", i), topo.Bandwidth(topology.LevelStorage))
	}
	return l
}

func (l *Lustre) Name() string { return "lustre" }

func (l *Lustre) Create(name string, opt FileOptions) *File {
	opt.StripeCount, opt.StripeSize = l.resolveOpt(opt)
	f := &File{Name: name, Opt: opt, impl: &lustreFile{
		stripeCount: opt.StripeCount,
		stripeSize:  opt.StripeSize,
		ostOffset:   l.fileSeq % l.numOST,
		stripeOwner: map[int64]int{},
	}}
	l.fileSeq++
	l.files[name] = f
	return f
}

func (l *Lustre) Lookup(name string) *File { return l.files[name] }

// OptimalUnit is the file's stripe size (paper Table I: aggregation buffers
// should match it 1:1).
func (l *Lustre) OptimalUnit(f *File) int64 {
	return f.impl.(*lustreFile).stripeSize
}

// OSTOf returns the global OST index holding the given stripe of the file.
func (l *Lustre) OSTOf(f *File, stripe int64) int {
	lf := f.impl.(*lustreFile)
	return (lf.ostOffset + int(stripe%int64(lf.stripeCount))) % l.numOST
}

// reserve books a write or read through the Lustre path.
func (l *Lustre) reserve(now int64, node int, f *File, segs []Seg, read bool) int64 {
	lf := f.impl.(*lustreFile)
	bytes := TotalBytes(segs)
	if bytes == 0 {
		return now + lustreRPCLatency
	}
	// Fold window-clipping fragments back into whole patterns before the
	// stripe math: the per-stripe walk below is then linear in runs, not in
	// fragments, and the run set (hence the pricing) is unchanged.
	l.segScratch = CompactInto(l.segScratch, segs)
	segs = l.segScratch
	runs := TotalRuns(segs)
	t0 := now + runs*lustrePerRunCost

	// Partition the access by stripe, grouping chunks per OST object.
	lo, hi := SpanAll(segs)
	S := lf.stripeSize
	if l.chunkBytes == nil {
		l.chunkBytes = make([]int64, l.numOST)
		l.chunkConflict = make([]int64, l.numOST)
	}
	ostOrder := l.chunkOrder[:0]
	for s := lo / S; s <= (hi-1)/S; s++ {
		var b int64
		for _, sg := range segs {
			b += sg.BytesIn(s*S, (s+1)*S)
		}
		if b == 0 {
			continue
		}
		ost := l.OSTOf(f, s)
		if l.chunkBytes[ost] == 0 && l.chunkConflict[ost] == 0 {
			ostOrder = append(ostOrder, ost)
		}
		l.chunkBytes[ost] += b
		if !read {
			if owner, ok := lf.stripeOwner[s]; ok && owner != node {
				l.chunkConflict[ost] += lustreLockRevocation
			}
			lf.stripeOwner[s] = node
		}
	}
	l.chunkOrder = ostOrder

	// One object stream per OST. Streams of one call are processed
	// serially by the issuing client (the Lustre client walks the layout
	// object by object — spanning objects buys no intra-call parallelism,
	// which is why super-stripe aggregation buffers lose in Table I).
	// Within a stream, RPCs are serialized by the round-trip latency, so a
	// single stream is latency-bound while concurrent clients fill the
	// OST's idle gaps.
	ostRate := lustreOSTBandwidth
	if read {
		ostRate *= lustreReadFactor
	}
	cur := t0
	for _, ost := range ostOrder {
		ckBytes, ckConflict := l.chunkBytes[ost], l.chunkConflict[ost]
		l.chunkBytes[ost], l.chunkConflict[ost] = 0, 0 // reset for the next call
		lnetIdx := ost % len(l.lnet)
		lnetNode := l.topo.ServiceNode(lnetIdx)
		var stageIn int64
		if read {
			// Reads start with a small request message (pure latency) and
			// flow back LNET→client afterwards.
			stageIn = cur + l.fab.LatencyTo(node, lnetNode)
			_, stageIn = l.lnet[lnetIdx].Reserve(stageIn, ckBytes)
		} else {
			_, arr := l.fab.Reserve(cur, node, lnetNode, ckBytes)
			_, stageIn = l.lnet[lnetIdx].Reserve(arr, ckBytes)
		}
		cur = stageIn + ckConflict + lustreObjectSetup
		remaining := ckBytes
		for remaining > 0 {
			rpc := min(remaining, lustreRPCSize)
			dur := sim.TransferTime(rpc, ostRate)
			_, end := l.osts[ost].ReserveDur(cur, dur, rpc)
			cur = end + lustreRPCLatency
			remaining -= rpc
		}
		if read {
			// Deliver the data over the fabric to the client.
			_, arr := l.fab.Reserve(cur, lnetNode, node, ckBytes)
			cur = arr
		}
	}
	return cur
}

// resolveOpt applies the creation-time clamping to options that may not have
// been resolved yet (the autotuner prices candidate files before creating
// them).
func (l *Lustre) resolveOpt(opt FileOptions) (count int, size int64) {
	count, size = opt.StripeCount, opt.StripeSize
	if count <= 0 {
		count = lustreDefaultStripeCount
	}
	if count > l.numOST {
		count = l.numOST
	}
	if size <= 0 {
		size = lustreDefaultStripeSize
	}
	return count, size
}

// EstimateFlush prices a single client stream analytically, mirroring
// reserve: per-run marshaling, LNET staging, then per OST object a stream
// setup plus latency-bound serial RPCs.
func (l *Lustre) EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64 {
	if bytes <= 0 {
		return sim.ToSeconds(lustreRPCLatency)
	}
	count, size := l.resolveOpt(opt)
	ostRate := lustreOSTBandwidth
	if read {
		ostRate *= lustreReadFactor
	}
	stripes := (bytes + size - 1) / size
	objects := stripes
	if objects > int64(count) {
		objects = int64(count) // reserve groups same-OST stripes into one chunk
	}
	perObject := (bytes + objects - 1) / objects
	rpcs := (perObject + lustreRPCSize - 1) / lustreRPCSize
	sec := sim.ToSeconds(runs*lustrePerRunCost) + float64(bytes)/l.topo.Bandwidth(topology.LevelStorage)
	sec += float64(objects) * (sim.ToSeconds(lustreObjectSetup) +
		float64(perObject)/ostRate + float64(rpcs)*sim.ToSeconds(lustreRPCLatency))
	return sec
}

// AggregateBandwidth is the concurrent-flush ceiling for one file: its OSTs'
// combined rate, capped by the LNET routers.
func (l *Lustre) AggregateBandwidth(opt FileOptions, read bool) float64 {
	count, _ := l.resolveOpt(opt)
	ostRate := lustreOSTBandwidth
	if read {
		ostRate *= lustreReadFactor
	}
	agg := float64(count) * ostRate
	if lnet := float64(len(l.lnet)) * l.topo.Bandwidth(topology.LevelStorage); lnet < agg {
		agg = lnet
	}
	return agg
}

// AlignUnit is OptimalUnit for a file that need not exist yet.
func (l *Lustre) AlignUnit(opt FileOptions) int64 {
	_, size := l.resolveOpt(opt)
	return size
}

// RecommendStripe matches the stripe size to the aggregation buffer 1:1
// (the paper's Table I optimum — every flush is one OST object, no
// super-stripe setup costs, no sub-stripe lock sharing) and stripes the
// file across every OST it can keep busy.
func (l *Lustre) RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions {
	if bufSize <= 0 {
		bufSize = lustreDefaultStripeSize
	}
	count := l.numOST
	if stripes := (totalBytes + bufSize - 1) / bufSize; stripes > 0 && stripes < int64(count) {
		count = int(stripes)
	}
	return FileOptions{StripeCount: count, StripeSize: bufSize}
}

// book prices a sieved write as page-granular writeback rather than a
// read-modify-write: the client dirties whole 4 KB pages, so a sparse
// pattern transfers its page footprint (up to the whole span), with no
// sieve read — Lustre client mechanics, unlike the BG/Q GPFS path.
func (l *Lustre) book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (int64, string, []Seg) {
	now := p.Now()
	if op == OpRead {
		f.recordRead(segs)
		return l.reserve(now, node, f, segs, true), "lustre-read", segs
	}
	f.recordWrite(node, now, segs)
	if op == OpWrite {
		return l.reserve(now, node, f, segs, false), "lustre-write", segs
	}
	span := pageSpan(segs)
	return l.reserve(now, node, f, span, false), "lustre-write-sieved", span
}
