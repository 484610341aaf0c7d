// Package netsim models data movement over an interconnect topology.
//
// A Fabric attaches contention resources to the NICs (and optionally every
// fabric link) of a topology.Topology and books transfers through them in
// virtual time. The transfer model is cut-through/wormhole style: a message
// occupies its whole path for bytes/bottleneck-bandwidth, pays per-hop
// latency once, and queues wherever it meets a busy resource. Incast
// (many-to-one aggregation traffic, the heart of two-phase I/O) therefore
// serializes naturally at the receiver NIC, and neighboring aggregators
// sharing torus links contend with each other under the link-level model —
// the effect the paper's topology-aware placement exploits.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"tapioca/internal/fault"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
	"tapioca/internal/topology"
)

// Contention models.
const (
	// ContentionEndpoint books only the sender and receiver NICs. Fast and
	// adequate for storage-bound studies.
	ContentionEndpoint = iota
	// ContentionLinks books the NICs and every link along the route,
	// exposing path contention between concurrent flows.
	ContentionLinks
)

// softwareOverhead is the per-message sender-side software cost (ns): 1 µs.
const softwareOverhead int64 = 1000

// Config tunes a Fabric. The per-hop latency is the topology's, and every
// NIC ejects at its injection rate.
type Config struct {
	// Contention selects ContentionEndpoint or ContentionLinks.
	Contention int
	// InjectRate is the per-node NIC injection (and ejection) bandwidth
	// (bytes/sec). Default: the topology's injection-level bandwidth.
	InjectRate float64
}

// pathEntry is one cached node pair: the route length, the minimum link rate
// along the route, and (link-contention mode) the route's link resources
// interned as a span of the fabric's arena.
type pathEntry struct {
	off, n     int32 // resArena[off : off+n]
	hops       int32
	bottleneck float64
}

// Fabric books transfers between nodes of a topology over shared resources.
// All methods must be called from the running sim proc (single-threaded
// virtual-time discipline).
type Fabric struct {
	topo   topology.Topology
	cfg    Config
	hopLat int64 // the topology's per-hop latency (ns)

	nicIn  []*sim.GapResource // lazily created on first use
	nicOut []*sim.GapResource
	links  []*sim.GapResource // lazily allocated, indexed by topology link id

	scratch []*sim.GapResource // reusable per-transfer resource list

	paths    map[int64]pathEntry // (src*Nodes + dst) → cached path facts
	resArena []*sim.GapResource  // interned link resources (links mode)
	resIDs   []int32             // topology link ids parallel to resArena

	// rec is the optional flight recorder: reservation spans on the NIC and
	// link timelines plus stride-sampled rolling-utilization counters. nil
	// when observability is off.
	rec        *obs.Recorder
	traceLinks []int32 // scratch: link ids of the transfer being traced

	distOnce sync.Once
	dist     *topology.DistanceCache

	// faults is the optional deterministic fault plan: straggler nodes,
	// degraded link windows and transient losses stretch transfer durations
	// before booking. nil when fault injection is off.
	faults *fault.Plan

	transfers  int64
	totalBytes int64

	// Fabric-vs-node split of the transfer counters: fabricMsgs counts only
	// inter-node messages (the traffic intra-node pre-aggregation is built
	// to cut), while localTransfers/localBytes count the staging copies
	// booked through ReserveLocal at memory bandwidth.
	fabricMsgs     int64
	localTransfers int64
	localBytes     int64
}

// New builds a fabric over the topology with the given configuration.
func New(topo topology.Topology, cfg Config) *Fabric {
	if cfg.InjectRate <= 0 {
		cfg.InjectRate = topo.Bandwidth(topology.LevelInjection)
	}
	n := topo.Nodes()
	return &Fabric{
		topo:   topo,
		cfg:    cfg,
		hopLat: topo.Latency(),
		nicIn:  make([]*sim.GapResource, n),
		nicOut: make([]*sim.GapResource, n),
		links:  make([]*sim.GapResource, topo.NumLinks()),
		paths:  make(map[int64]pathEntry),
	}
}

// Topology returns the underlying topology.
func (f *Fabric) Topology() topology.Topology { return f.topo }

// SetRecorder attaches a flight recorder. Call before the first transfer.
func (f *Fabric) SetRecorder(r *obs.Recorder) { f.rec = r }

// SetFaults attaches a deterministic fault plan. Call before the first
// transfer; nil disables injection.
func (f *Fabric) SetFaults(pl *fault.Plan) { f.faults = pl }

// Distances returns the machine-wide memoized distance cache over the
// fabric's topology. Every rank, session and cost model on the machine
// shares the same rows, so aggregator elections pay each node-pair distance
// once per machine rather than once per lookup.
func (f *Fabric) Distances() *topology.DistanceCache {
	f.distOnce.Do(func() {
		if f.dist == nil {
			f.dist = topology.NewDistanceCache(f.topo)
		}
	})
	return f.dist
}

// ShareDistances injects an externally shared distance cache (rows are
// lock-free and pure, so one cache may serve many fabrics over the same
// topology instance). Call before the first Distances use.
func (f *Fabric) ShareDistances(dc *topology.DistanceCache) { f.dist = dc }

// Config returns the fabric configuration actually in effect.
func (f *Fabric) Config() Config { return f.cfg }

// Transfers returns the number of transfers booked so far.
func (f *Fabric) Transfers() int64 { return f.transfers }

// TotalBytes returns the bytes moved across all transfers.
func (f *Fabric) TotalBytes() int64 { return f.totalBytes }

// FabricMessages returns the number of inter-node messages booked so far —
// Reserve calls whose source and destination nodes differ. Intra-node
// shared-memory copies (src == dst, or ReserveLocal staging copies) never
// touch fabric links and are excluded, so this is the counter intra-node
// pre-aggregation shrinks ppn-fold.
func (f *Fabric) FabricMessages() int64 { return f.fabricMsgs }

// LocalTransfers returns the number of staging copies booked via
// ReserveLocal.
func (f *Fabric) LocalTransfers() int64 { return f.localTransfers }

func (f *Fabric) link(id int) *sim.GapResource {
	r := f.links[id]
	if r == nil {
		r = sim.NewGapResource(fmt.Sprintf("link-%d", id), f.topo.LinkRate(id))
		f.links[id] = r
	}
	return r
}

// nicOutFor returns node i's injection NIC, creating it on first use — an
// idle node (common at paper scale, where only aggregators and their
// partners ever transfer) costs nothing.
func (f *Fabric) nicOutFor(i int) *sim.GapResource {
	r := f.nicOut[i]
	if r == nil {
		r = sim.NewGapResource(fmt.Sprintf("nic-out-%d", i), f.cfg.InjectRate)
		f.nicOut[i] = r
	}
	return r
}

// nicInFor returns node i's ejection NIC, creating it on first use.
func (f *Fabric) nicInFor(i int) *sim.GapResource {
	r := f.nicIn[i]
	if r == nil {
		r = sim.NewGapResource(fmt.Sprintf("nic-in-%d", i), f.cfg.InjectRate)
		f.nicIn[i] = r
	}
	return r
}

// path returns the cached path facts for a node pair, computing and interning
// them on first use.
func (f *Fabric) path(src, dst int) pathEntry {
	key := int64(src)*int64(f.topo.Nodes()) + int64(dst)
	if e, ok := f.paths[key]; ok {
		return e
	}
	e := f.buildPath(src, dst)
	f.paths[key] = e
	return e
}

// buildPath computes one pair's path facts. Endpoint-model fabrics stay
// route-free wherever the topology answers PathStats: hops and bottleneck
// come from its compact tables and no link sequence is materialized.
func (f *Fabric) buildPath(src, dst int) pathEntry {
	if f.cfg.Contention != ContentionLinks {
		if hops, bn, ok := f.topo.PathStats(src, dst); ok {
			return pathEntry{hops: int32(hops), bottleneck: bn}
		}
	}
	route := f.topo.Route(src, dst)
	e := pathEntry{hops: int32(len(route)), bottleneck: math.Inf(1)}
	for _, l := range route {
		if r := f.topo.LinkRate(l); r < e.bottleneck {
			e.bottleneck = r
		}
	}
	if f.cfg.Contention == ContentionLinks {
		e.off = int32(len(f.resArena))
		e.n = int32(len(route))
		for _, l := range route {
			f.resArena = append(f.resArena, f.link(l))
			f.resIDs = append(f.resIDs, int32(l))
		}
	}
	return e
}

// Reserve books a transfer of bytes from src to dst starting no earlier than
// now, and returns:
//
//	senderFree — when the sender has finished injecting (its buffer is
//	             reusable; local completion for a put or eager send);
//	arrival    — when the last byte reaches dst.
//
// The reservation is one-sided: no proc at dst needs to participate, which
// is exactly MPI_Put semantics. Callers block (or not) on the returned times.
// In steady state (warm path cache) Reserve allocates nothing.
func (f *Fabric) Reserve(now int64, src, dst int, bytes int64) (senderFree, arrival int64) {
	f.transfers++
	f.totalBytes += bytes
	start := now + softwareOverhead

	if src == dst {
		// Intra-node: shared-memory copy, no NIC involvement.
		dur := sim.TransferTime(bytes, topology.LocalBandwidth)
		return start + dur, start + dur
	}
	f.fabricMsgs++

	// Collect the resources this transfer occupies. The NICs bound the
	// bandwidth; the path's minimum link rate tightens it further.
	tracing := f.rec.Tracing()
	if tracing {
		f.traceLinks = f.traceLinks[:0]
	}
	bottleneck := f.cfg.InjectRate
	resources := append(f.scratch[:0], f.nicOutFor(src))
	e := f.path(src, dst)
	if e.bottleneck < bottleneck {
		bottleneck = e.bottleneck
	}
	resources = append(resources, f.resArena[e.off:e.off+e.n]...)
	if tracing {
		f.traceLinks = append(f.traceLinks, f.resIDs[e.off:e.off+e.n]...)
	}
	resources = append(resources, f.nicInFor(dst))

	// Wormhole model: the flow occupies its whole path for bytes/bottleneck
	// starting at the earliest instant every stage is simultaneously free
	// (gap-filling, so staggered flows pipeline through shared stages).
	dur := sim.TransferTime(bytes, bottleneck)
	if f.faults != nil {
		var eff fault.NetEffect
		if dur, eff = f.faults.Transfer(src, dst, start, dur, f.transfers); eff.Any() {
			reg := f.rec.Registry()
			if eff.Straggler {
				reg.Add(fault.MetricStragglerHits, 1)
			}
			if eff.Degraded {
				reg.Add(fault.MetricDegradedLinks, 1)
			}
			if eff.Loss {
				reg.Add(fault.MetricNetRetransmits, 1)
			}
		}
	}
	start, end := sim.ReserveTogether(start, dur, bytes, resources)
	// Only park the scratch once ReserveTogether is done with the list: an
	// earlier reset would let a reentrant Reserve overwrite live entries.
	f.scratch = resources[:0]
	if tracing {
		f.traceReserve(src, dst, start, end, bytes)
	}

	senderFree = end
	arrival = start + int64(e.hops)*f.hopLat + dur
	return senderFree, arrival
}

// ReserveLocal books an intra-node staging copy of bytes on node, starting
// no earlier than now, and returns when it completes (the copier is busy for
// the whole copy, so senderFree == arrival). The copy moves at
// topology.LocalBandwidth — memory bandwidth, never a fabric link or NIC — and
// is counted separately from Reserve's transfer counters: it is the
// member-to-leader hop of intra-node pre-aggregation, not a message. The
// fault plane does not reach in here; shared-memory copies are outside the
// network fault model.
func (f *Fabric) ReserveLocal(now int64, node int, bytes int64) (senderFree, arrival int64) {
	f.localTransfers++
	f.localBytes += bytes
	start := now + softwareOverhead
	end := start + sim.TransferTime(bytes, topology.LocalBandwidth)
	if f.rec.Tracing() {
		// Staging copies share the node's NIC timeline rows (they are node
		// activity) under their own span name, so Perfetto separates them
		// from real tx/rx traffic at a glance.
		rec := f.rec
		tid := int32(node) * 2
		rec.Span(obs.PIDNICs, tid, "net", "stage", start, end, bytes)
		if end > 0 && f.localTransfers%utilSampleStride == 0 {
			rec.Counter(obs.PIDNICs, tid, "stage.bytes", end, float64(f.localBytes))
		}
	}
	return end, end
}

// utilSampleStride throttles rolling-utilization counter emission: every
// Nth transfer samples the involved resources. Dense enough for a smooth
// Perfetto track, sparse enough that counters stay a small fraction of the
// span volume.
const utilSampleStride = 8

// traceReserve emits one booked transfer's reservation spans — injection
// NIC, ejection NIC, and each occupied link — plus, every
// utilSampleStride-th transfer, rolling busy-fraction counters for those
// resources. Virtual-time only, called from the running proc.
func (f *Fabric) traceReserve(src, dst int, start, end, bytes int64) {
	rec := f.rec
	txTID, rxTID := int32(src)*2, int32(dst)*2+1
	rec.Span(obs.PIDNICs, txTID, "net", "tx", start, end, bytes)
	rec.Span(obs.PIDNICs, rxTID, "net", "rx", start, end, bytes)
	for _, l := range f.traceLinks {
		rec.Span(obs.PIDLinks, l, "net", "xfer", start, end, bytes)
	}
	if end <= 0 || f.transfers%utilSampleStride != 0 {
		return
	}
	h := float64(end)
	rec.Counter(obs.PIDNICs, txTID, "util", end, float64(f.nicOut[src].BusyTime())/h)
	rec.Counter(obs.PIDNICs, rxTID, "util", end, float64(f.nicIn[dst].BusyTime())/h)
	for _, l := range f.traceLinks {
		rec.Counter(obs.PIDLinks, l, "util", end, float64(f.links[l].BusyTime())/h)
	}
}

// SnapshotMetrics folds the fabric's end-of-run statistics into a metrics
// registry: transfer and byte counters plus the distribution of busy-time
// fractions over [0, horizon] across every NIC and link that ever carried
// traffic (idle resources are never created, so they are excluded).
func (f *Fabric) SnapshotMetrics(reg *obs.Registry, horizon int64) {
	if reg == nil {
		return
	}
	reg.Add("net.transfers", f.transfers)
	reg.Add("net.bytes", f.totalBytes)
	reg.Add("net.fabric_messages", f.fabricMsgs)
	if f.localTransfers > 0 {
		reg.Add("net.local.transfers", f.localTransfers)
		reg.Add("net.local.bytes", f.localBytes)
	}
	if horizon <= 0 {
		return
	}
	h := float64(horizon)
	var maxLink, maxNIC float64
	for _, r := range f.links {
		if r == nil {
			continue
		}
		u := float64(r.BusyTime()) / h
		reg.Observe("net.link_utilization", u)
		if u > maxLink {
			maxLink = u
		}
	}
	for i := range f.nicIn {
		if r := f.nicIn[i]; r != nil {
			u := float64(r.BusyTime()) / h
			reg.Observe("net.nic_utilization", u)
			if u > maxNIC {
				maxNIC = u
			}
		}
		if r := f.nicOut[i]; r != nil {
			u := float64(r.BusyTime()) / h
			reg.Observe("net.nic_utilization", u)
			if u > maxNIC {
				maxNIC = u
			}
		}
	}
	if maxLink > 0 {
		reg.SetMax("net.max_link_utilization", maxLink)
	}
	if maxNIC > 0 {
		reg.SetMax("net.max_nic_utilization", maxNIC)
	}
}

// LatencyTo returns the pure request latency from src to dst (software
// overhead plus per-hop latency), with no resource booking — the cost of a
// small control message such as a read RPC request.
func (f *Fabric) LatencyTo(src, dst int) int64 {
	return softwareOverhead + int64(f.topo.Distance(src, dst))*f.hopLat
}

// MaxNICUtilization returns the highest busy-time fraction across NICs up to
// horizon, a coarse hot-spot diagnostic. NICs are created on first transfer,
// so the scan covers only nodes that ever moved data — at paper scale the
// idle majority costs neither allocation nor scan time.
func (f *Fabric) MaxNICUtilization(horizon int64) float64 {
	if horizon <= 0 {
		return 0
	}
	var maxBusy int64
	for i := range f.nicIn {
		if r := f.nicIn[i]; r != nil {
			if b := r.BusyTime(); b > maxBusy {
				maxBusy = b
			}
		}
		if r := f.nicOut[i]; r != nil {
			if b := r.BusyTime(); b > maxBusy {
				maxBusy = b
			}
		}
	}
	return float64(maxBusy) / float64(horizon)
}
