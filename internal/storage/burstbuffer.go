package storage

import (
	"fmt"

	"tapioca/internal/sim"
)

// BurstBufferConfig calibrates the burst-buffer tier (the paper's
// future-work extension: aggregate into a fast intermediate tier, drain to
// the parallel file system asynchronously).
type BurstBufferConfig struct {
	// Servers is the number of burst-buffer nodes. Default 8.
	Servers int
	// ServerBW is the per-server ingest bandwidth. Default 5 GB/s
	// (NVMe-class).
	ServerBW float64
	// PerOp is the per-request overhead. Default 50 µs.
	PerOp int64
}

func (c *BurstBufferConfig) setDefaults() {
	if c.Servers <= 0 {
		c.Servers = 8
	}
	if c.ServerBW <= 0 {
		c.ServerBW = 5e9
	}
	if c.PerOp <= 0 {
		c.PerOp = 50 * sim.Microsecond
	}
}

// BurstBuffer is a write-behind staging tier in front of another storage
// system: writes complete when they land on a burst-buffer server, and the
// data drains to the backing system asynchronously. Reads are served from
// the buffer when the data is still staged (always, in this model).
//
// This implements the paper's §VI future-work direction — "efficiently
// aggregate data from the DRAM on the MCDRAM in order to move it to burst
// buffers in an optimized manner" — as a composable System.
type BurstBuffer struct {
	cfg     BurstBufferConfig
	backing System
	servers []*sim.GapResource

	pending []*sim.Event // outstanding drains
	staged  int64
}

// NewBurstBuffer stacks a burst-buffer tier on a backing system.
func NewBurstBuffer(backing System, cfg BurstBufferConfig) *BurstBuffer {
	cfg.setDefaults()
	bb := &BurstBuffer{cfg: cfg, backing: backing}
	for i := 0; i < cfg.Servers; i++ {
		bb.servers = append(bb.servers, sim.NewGapResource(fmt.Sprintf("bb-%d", i), cfg.ServerBW))
	}
	return bb
}

func (bb *BurstBuffer) Name() string { return "burstbuffer+" + bb.backing.Name() }

func (bb *BurstBuffer) Create(name string, opt FileOptions) *File {
	return bb.backing.Create(name, opt)
}

func (bb *BurstBuffer) Lookup(name string) *File { return bb.backing.Lookup(name) }

func (bb *BurstBuffer) OptimalUnit(f *File) int64 { return bb.backing.OptimalUnit(f) }

// server picks the burst-buffer server for an access (spread by offset).
func (bb *BurstBuffer) server(f *File, segs []Seg) *sim.GapResource {
	lo, _ := SpanAll(segs)
	h := uint64(lo/(8<<20)) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	return bb.servers[h%uint64(len(bb.servers))]
}

// Flush blocks until every background drain has reached the backing system
// and returns the time of the last one.
func (bb *BurstBuffer) Flush(p *sim.Proc) int64 {
	var last int64
	for _, ev := range bb.pending {
		if at := ev.Wait(p); at > last {
			last = at
		}
	}
	bb.pending = nil
	return last
}

// StagedBytes returns the bytes ingested by the buffer tier.
func (bb *BurstBuffer) StagedBytes() int64 { return bb.staged }

// TierIOCost prices the I/O phase for the placement cost model (the
// cost.TierCost hook, satisfied structurally): a write completes when it
// lands on a burst-buffer server, so the C2 a candidate aggregator pays is
// the per-request overhead plus ingest time — independent of the backing
// file system's uplink geometry.
func (bb *BurstBuffer) TierIOCost(node int, bytes int64) (float64, bool) {
	return sim.ToSeconds(bb.cfg.PerOp) + float64(bytes)/bb.cfg.ServerBW, true
}

// EstimateFlush prices the ingest a writer actually waits for: the
// per-request overhead plus server bandwidth. Reads are served from the
// buffer at the same rate.
func (bb *BurstBuffer) EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64 {
	return sim.ToSeconds(bb.cfg.PerOp) + float64(bytes)/bb.cfg.ServerBW
}

// AggregateBandwidth is the combined server ingest rate. Background drains
// to the backing system are asynchronous and do not bound the foreground.
func (bb *BurstBuffer) AggregateBandwidth(opt FileOptions, read bool) float64 {
	return float64(bb.cfg.Servers) * bb.cfg.ServerBW
}

// AlignUnit and RecommendStripe are the backing system's: the drained file
// lands in its layout and still wants backing-friendly striping.
func (bb *BurstBuffer) AlignUnit(opt FileOptions) int64 { return bb.backing.AlignUnit(opt) }

func (bb *BurstBuffer) RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions {
	return bb.backing.RecommendStripe(totalBytes, bufSize, aggregators)
}

// book serves reads from the buffer. A write completes at ingest (what the
// writer waits for) while its drain to the backing system is booked
// concurrently, tracked in pending, and records the write on the file. A
// sieved write stages its page footprint, as a page-granular client would.
func (bb *BurstBuffer) book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (int64, string, []Seg) {
	if op == OpSieve {
		segs = pageSpan(segs)
	}
	bytes := TotalBytes(segs)
	_, end := bb.server(f, segs).ReserveDur(p.Now()+bb.cfg.PerOp, sim.TransferTime(bytes, bb.cfg.ServerBW), bytes)
	if op == OpRead {
		f.recordRead(segs)
		return end, "bb-read", segs
	}
	bb.staged += bytes
	bb.pending = append(bb.pending, Start(p, bb.backing, node, f, segs, OpWrite))
	return end, "bb-write", segs
}
