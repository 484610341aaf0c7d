// Package dataplane carries real payload bytes through the aggregation
// pipeline. The simulation's timing models move virtual byte counts; this
// package supplies the other half of an I/O library — the bytes themselves —
// as a per-rank Plane that gathers application data into put payloads
// (writes) and scatters fetched window bytes back into application buffers
// (reads).
//
// A Plane is built from the same declared segment lists the planner
// consumes, plus one packed payload buffer per declared operation. Internally
// it is a file-offset-sorted run index, so any file window [lo, hi) maps to
// the rank's payload bytes in file-offset order — exactly the order the
// aggregation buffers and storage extents use. The phantom mode (no Plane at
// all) remains the default everywhere: paper-scale figures never materialize
// a byte.
package dataplane

import (
	"fmt"
	"runtime"
	"sort"

	"tapioca/internal/par"
	"tapioca/internal/storage"
)

// maxRuns bounds a Plane's run-index size: the data plane targets
// correctness-verified scenarios at moderate scale, not the paper-scale
// phantom figures, and an accidental million-run AoS pattern should fail
// loudly rather than allocate without bound.
const maxRuns = 1 << 22

// run maps one contiguous file extent of the rank's declared data to its
// position within a declared operation's payload buffer.
type run struct {
	off, end int64 // file range [off, end)
	op       int32 // declared operation index
	pos      int64 // byte position within data[op]
}

// Plane is one rank's data-plane handle for a collective I/O session: the
// bridge between the application's declared payload buffers and the
// file-offset-ordered byte streams that flow through aggregation buffers
// into storage. For write sessions the buffers are sources; for read
// sessions the same buffers are destinations.
type Plane struct {
	data  [][]byte
	runs  []run // sorted by off; non-overlapping
	total int64
}

// New builds a Plane from a rank's declared operations and the matching
// payload buffers: data[i] holds declared[i]'s bytes packed in segment
// enumeration order (run by run, in the order the segments were declared).
// It returns a descriptive error when lengths mismatch or runs overlap.
func New(declared [][]storage.Seg, data [][]byte) (*Plane, error) {
	if len(declared) != len(data) {
		return nil, fmt.Errorf("dataplane: %d declared operations but %d payload buffers", len(declared), len(data))
	}
	pl := &Plane{data: data}
	for op, segs := range declared {
		var pos int64
		for _, s := range segs {
			if s.Empty() {
				continue
			}
			if int64(len(pl.runs))+s.Count > maxRuns {
				return nil, fmt.Errorf("dataplane: declared pattern exceeds %d runs (use phantom mode for paper-scale patterns)", maxRuns)
			}
			for i := int64(0); i < s.Count; i++ {
				off := s.Off + i*s.Stride
				pl.runs = append(pl.runs, run{off: off, end: off + s.Len, op: int32(op), pos: pos})
				pos += s.Len
			}
		}
		if pos != int64(len(data[op])) {
			return nil, fmt.Errorf("dataplane: operation %d declares %d bytes but payload buffer holds %d", op, pos, len(data[op]))
		}
		pl.total += pos
	}
	sort.Slice(pl.runs, func(i, j int) bool { return pl.runs[i].off < pl.runs[j].off })
	for i := 1; i < len(pl.runs); i++ {
		if pl.runs[i].off < pl.runs[i-1].end {
			return nil, fmt.Errorf("dataplane: declared runs overlap at file offset %d", pl.runs[i].off)
		}
	}
	return pl, nil
}

// Bytes returns the rank's total declared payload size.
func (pl *Plane) Bytes() int64 { return pl.total }

// first returns the index of the first run whose end is after lo.
func (pl *Plane) first(lo int64) int {
	return sort.Search(len(pl.runs), func(i int) bool { return pl.runs[i].end > lo })
}

// Each visits the rank's payload chunks with file offsets in [lo, hi), in
// file-offset order. Every chunk is a sub-slice of the rank's own payload
// buffer — mutable, so the same walk serves gathers (read the chunk) and
// scatters (fill the chunk).
func (pl *Plane) Each(lo, hi int64, fn func(off int64, chunk []byte)) {
	for i := pl.first(lo); i < len(pl.runs) && pl.runs[i].off < hi; i++ {
		r := &pl.runs[i]
		o, e := max(r.off, lo), min(r.end, hi)
		if e <= o {
			continue
		}
		p := r.pos + (o - r.off)
		fn(o, pl.data[r.op][p:p+(e-o)])
	}
}

// Gather copies the rank's payload bytes with file offsets in [lo, hi) into
// dst in file-offset order — the layout of this rank's contribution to an
// aggregation-buffer window — returning the bytes copied.
func (pl *Plane) Gather(dst []byte, lo, hi int64) int64 {
	var n int64
	pl.Each(lo, hi, func(_ int64, chunk []byte) {
		n += int64(copy(dst[n:], chunk))
	})
	return n
}

// Scatter is Gather's inverse: it distributes src (this rank's window
// contribution, file-offset order) back into the declared payload buffers,
// returning the bytes consumed.
func (pl *Plane) Scatter(src []byte, lo, hi int64) int64 {
	var n int64
	pl.Each(lo, hi, func(_ int64, chunk []byte) {
		n += int64(copy(chunk, src[n:]))
	})
	return n
}

// checksumShardBytes is the minimum payload per parallel checksum shard;
// below that the serial scan wins.
const checksumShardBytes = 4 << 20

// Checksum returns the CRC-64/ECMA of the rank's payload bytes in
// file-offset order. Because the order is file-positional (not declaration
// order), a write session's checksum equals both the storage checksum over
// the same extents and the checksum of a read session that declared the same
// pattern — the end-to-end verification contract. Large payloads shard
// across up to GOMAXPROCS goroutines and merge with storage.CRC64Combine;
// the result is identical to the serial scan.
func (pl *Plane) Checksum() uint64 {
	k := int(pl.total / checksumShardBytes)
	if lim := runtime.GOMAXPROCS(0); k > lim {
		k = lim
	}
	if k <= 1 || len(pl.runs) == 0 {
		return pl.checksumRange(0, 0, pl.total)
	}
	// Cut the byte stream into k equal shards in one pass over the run
	// index, splitting mid-run where a boundary lands inside one.
	type shard struct {
		run     int
		skip, n int64
	}
	per := (pl.total + int64(k) - 1) / int64(k)
	shards := make([]shard, 0, k)
	runIdx, skip, remaining := 0, int64(0), pl.total
	for remaining > 0 {
		n := min(per, remaining)
		shards = append(shards, shard{run: runIdx, skip: skip, n: n})
		for adv := n; adv > 0; {
			avail := (pl.runs[runIdx].end - pl.runs[runIdx].off) - skip
			if adv < avail {
				skip += adv
				break
			}
			adv -= avail
			runIdx++
			skip = 0
		}
		remaining -= n
	}
	crcs := make([]uint64, len(shards))
	par.Map(k, len(shards), func(i int) {
		crcs[i] = pl.checksumRange(shards[i].run, shards[i].skip, shards[i].n)
	})
	var crc uint64
	for i, c := range crcs {
		crc = storage.CRC64Combine(crc, c, shards[i].n)
	}
	return crc
}

// checksumRange checksums n bytes of the file-offset-ordered payload stream
// starting skip bytes into run runIdx.
func (pl *Plane) checksumRange(runIdx int, skip, n int64) uint64 {
	var crc uint64
	for i := runIdx; i < len(pl.runs) && n > 0; i++ {
		r := &pl.runs[i]
		p := pl.data[r.op][r.pos+skip : r.pos+(r.end-r.off)]
		if int64(len(p)) > n {
			p = p[:n]
		}
		crc = storage.CRC64(crc, p)
		n -= int64(len(p))
		skip = 0
	}
	return crc
}
