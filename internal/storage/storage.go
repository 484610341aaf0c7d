// Package storage models parallel file systems in virtual time.
//
// Two production models are provided, mirroring the paper's testbeds:
//
//   - GPFS behind IBM BG/Q I/O nodes (Mira): per-Pset bridge links and ION
//     uplinks, block-granular byte-range locks with a shared-lock mode, and
//     a per-file backend ceiling (single-shared-file behaviour vs the
//     recommended file-per-Pset subfiling).
//   - Lustre behind LNET service nodes (Theta): per-file striping across
//     OSTs, RPC-windowed object streams (single-stream throughput is
//     latency-bound; concurrency approaches the OST ceiling), extent-lock
//     revocations when writers share a stripe, and per-object stream setup
//     costs when a flush spans objects.
//
// Both decompose an access into compact strided segments (Seg) so that even
// pathological patterns (millions of 4-byte runs) are priced analytically.
package storage

import (
	"fmt"
	"math"
	"sort"

	"tapioca/internal/obs"
	"tapioca/internal/sim"
)

// FileOptions carries creation-time tuning (striping on Lustre).
type FileOptions struct {
	// StripeCount is the number of OSTs the file is striped over
	// (Lustre; default 1, the platform default the paper calls out).
	StripeCount int
	// StripeSize is the stripe width in bytes (Lustre; default 1 MB).
	StripeSize int64
}

// System is a simulated parallel file system. Only this package's models
// implement it; every access goes through Do or Start.
type System interface {
	// Name identifies the file system model.
	Name() string
	// Create creates (or truncates) a file.
	Create(name string, opt FileOptions) *File
	// Lookup returns an existing file or nil.
	Lookup(name string) *File
	// OptimalUnit returns the natural write granularity of the file
	// (stripe size on Lustre, block size on GPFS) — what an aggregation
	// buffer should align with (paper Table I).
	OptimalUnit(f *File) int64

	// The autotuner's calibration (internal/tune): pure arithmetic over the
	// model's constants, no reservations and no state, so thousands of
	// candidate configurations can be scored without touching a machine.
	// A fault plan changes timing, not calibration, so Faulty forwards these.

	// EstimateFlush returns the single-stream seconds for one client to
	// write (or read, when read is true) bytes laid out in runs contiguous
	// file runs, against a file created with opt. It mirrors the
	// calibration of the system's reservation path without booking anything.
	EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64
	// AggregateBandwidth returns the system-wide bytes/second ceiling for
	// concurrent flushes against one file created with opt (OST ceilings on
	// Lustre, ION/backend ceilings on GPFS). Concurrency beyond this rate
	// buys nothing.
	AggregateBandwidth(opt FileOptions, read bool) float64
	// AlignUnit returns the optimal write granularity for a file created
	// with opt — OptimalUnit without needing the file to exist.
	AlignUnit(opt FileOptions) int64
	// RecommendStripe returns the FileOptions for a file of totalBytes
	// written by aggregators clients flushing bufSize-byte buffers. Systems
	// without tunable striping return the zero FileOptions (platform
	// defaults).
	RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions

	// book records one access on f and reserves it through the model from
	// p's current time. It returns the completion time plus the span name
	// and segments the flight recorder reports. Callers go through Do and
	// Start, which own the waiting and the tracing.
	book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (done int64, name string, traced []Seg)
}

// Op selects what an access does.
type Op uint8

const (
	// OpWrite writes segs.
	OpWrite Op = iota
	// OpRead reads segs.
	OpRead
	// OpSieve is a data-sieving write: the file records the logical
	// segments while the model moves a contiguous span instead of pricing
	// run-by-run writes. This is how ROMIO handles sparse rounds; each
	// model prices the span with its own client mechanics.
	OpSieve
)

// Do performs a blocking access of segs issued from node and returns its
// completion time.
func Do(p *sim.Proc, sys System, node int, f *File, segs []Seg, op Op) int64 {
	done, _ := issue(p, sys, node, f, segs, op)
	p.HoldUntil(done)
	return done
}

// Start books an access and returns an event completing when it does (for a
// write, when the data is durable: the paper's non-blocking flush).
func Start(p *sim.Proc, sys System, node int, f *File, segs []Seg, op Op) *sim.Event {
	done, name := issue(p, sys, node, f, segs, op)
	ev := sim.NewEvent(name)
	sim.CompleteAt(p, ev, done)
	return ev
}

// issue books an access and reports it to the flight recorder: a
// service-interval span on the storage timeline (pid PIDStorage, tid = the
// issuing node) plus per-tier byte/op counters. One nil check when
// observability is off.
func issue(p *sim.Proc, sys System, node int, f *File, segs []Seg, op Op) (int64, string) {
	done, name, traced := sys.book(p, node, f, segs, op)
	rec := p.Recorder()
	if rec == nil {
		return done, name
	}
	bytes := TotalBytes(traced)
	reg := rec.Registry()
	if op == OpRead {
		reg.Add("storage.bytes_read", bytes)
	} else {
		reg.Add("storage.bytes_written", bytes)
	}
	reg.Add("storage.ops", 1)
	rec.Span(obs.PIDStorage, int32(node), "storage", name, p.Now(), done, bytes)
	return done, name
}

// File is a file within a simulated file system.
type File struct {
	Name string
	Opt  FileOptions

	bytesWritten int64
	bytesRead    int64
	writeOps     int64
	readOps      int64

	capture        bool
	captureLimit   int
	captureDropped int64
	writes         []AccessRecord

	store Store // backing byte store (nil = phantom mode)

	impl any // system-specific state
}

// AccessRecord is one captured write for verification.
type AccessRecord struct {
	Node int
	At   int64
	Segs []Seg
}

// DefaultCaptureLimit caps the access records a file retains with capture
// enabled. Capture exists for verification at test scale; a paper-scale run
// (tens of thousands of ranks × hundreds of rounds) that accidentally left
// capture on would otherwise grow the writes slice without bound. Records
// past the cap are counted in CaptureDropped instead of retained.
const DefaultCaptureLimit = 1 << 14

// SetCapture enables write capture for verification in tests. At most
// DefaultCaptureLimit records are retained (see SetCaptureLimit); overflow
// is counted by CaptureDropped and fails VerifyCoverage loudly.
func (f *File) SetCapture(on bool) {
	f.capture = on
	if on && f.captureLimit == 0 {
		f.captureLimit = DefaultCaptureLimit
	}
}

// SetCaptureLimit overrides the capture record cap (n <= 0 restores the
// default).
func (f *File) SetCaptureLimit(n int) {
	if n <= 0 {
		n = DefaultCaptureLimit
	}
	f.captureLimit = n
}

// CaptureDropped returns the access records discarded because the capture
// cap was reached.
func (f *File) CaptureDropped() int64 { return f.captureDropped }

// BytesWritten returns the total bytes written so far.
func (f *File) BytesWritten() int64 { return f.bytesWritten }

// BytesRead returns the total bytes read so far.
func (f *File) BytesRead() int64 { return f.bytesRead }

// WriteOps returns the number of write calls.
func (f *File) WriteOps() int64 { return f.writeOps }

// ReadOps returns the number of read calls.
func (f *File) ReadOps() int64 { return f.readOps }

// Writes returns the captured access records (capture mode only).
func (f *File) Writes() []AccessRecord { return f.writes }

func (f *File) recordWrite(node int, at int64, segs []Seg) {
	f.bytesWritten += TotalBytes(segs)
	f.writeOps++
	if f.capture {
		if len(f.writes) >= f.captureLimit {
			f.captureDropped++
		} else {
			cp := make([]Seg, len(segs))
			copy(cp, segs)
			f.writes = append(f.writes, AccessRecord{Node: node, At: at, Segs: cp})
		}
	}
}

func (f *File) recordRead(segs []Seg) {
	f.bytesRead += TotalBytes(segs)
	f.readOps++
}

// VerifyCoverage checks (by enumeration, small scale only) that captured
// writes exactly tile [lo, hi) with no gaps or overlaps. It returns an error
// describing the first discrepancy.
func (f *File) VerifyCoverage(lo, hi int64) error {
	if !f.capture {
		return fmt.Errorf("storage: file %q has no capture enabled", f.Name)
	}
	if f.captureDropped > 0 {
		return fmt.Errorf("storage: file %q capture truncated (%d records dropped at cap %d); raise SetCaptureLimit",
			f.Name, f.captureDropped, f.captureLimit)
	}
	const limit = 4 << 20
	type mark struct{ off, end int64 }
	var runs []mark
	for _, w := range f.writes {
		Enumerate(w.Segs, limit, func(off, length int64) {
			runs = append(runs, mark{off, off + length})
		})
	}
	// Sort and sweep.
	sort.Slice(runs, func(i, j int) bool { return runs[i].off < runs[j].off })
	cur := lo
	for _, r := range runs {
		if r.off > cur {
			return fmt.Errorf("storage: gap [%d,%d) in %q", cur, r.off, f.Name)
		}
		if r.off < cur {
			return fmt.Errorf("storage: overlap at %d in %q", r.off, f.Name)
		}
		cur = r.end
	}
	if cur != hi {
		return fmt.Errorf("storage: coverage ends at %d, want %d in %q", cur, hi, f.Name)
	}
	return nil
}

// NullFS is an infinitely fast file system with a fixed per-op latency: it
// isolates network effects in tests and ablations.
type NullFS struct {
	PerOp int64 // ns per operation (default 1 µs)
	files map[string]*File
}

// NewNullFS returns a NullFS.
func NewNullFS() *NullFS { return &NullFS{PerOp: 1000, files: map[string]*File{}} }

func (n *NullFS) Name() string { return "nullfs" }

func (n *NullFS) Create(name string, opt FileOptions) *File {
	f := &File{Name: name, Opt: opt}
	n.files[name] = f
	return f
}

func (n *NullFS) Lookup(name string) *File { return n.files[name] }

func (n *NullFS) OptimalUnit(f *File) int64 { return 1 << 20 }

// EstimateFlush prices the fixed per-op latency: NullFS has no bandwidth
// to model.
func (n *NullFS) EstimateFlush(opt FileOptions, bytes, runs int64, read bool) float64 {
	return sim.ToSeconds(n.PerOp)
}

// AggregateBandwidth is unbounded: NullFS absorbs any concurrency.
func (n *NullFS) AggregateBandwidth(opt FileOptions, read bool) float64 {
	return math.Inf(1)
}

// AlignUnit matches OptimalUnit.
func (n *NullFS) AlignUnit(opt FileOptions) int64 { return 1 << 20 }

// RecommendStripe returns platform defaults: NullFS has no striping.
func (n *NullFS) RecommendStripe(totalBytes, bufSize int64, aggregators int) FileOptions {
	return FileOptions{}
}

// book prices a sieved write at two per-op latencies (read, then write).
func (n *NullFS) book(p *sim.Proc, node int, f *File, segs []Seg, op Op) (int64, string, []Seg) {
	now := p.Now()
	if op == OpRead {
		f.recordRead(segs)
		return now + n.PerOp, "nullfs-read", segs
	}
	f.recordWrite(node, now, segs)
	if op == OpWrite {
		return now + n.PerOp, "nullfs-write", segs
	}
	lo, hi := SpanAll(segs)
	f.bytesRead += hi - lo
	return now + 2*n.PerOp, "nullfs-write-sieved", segs
}
