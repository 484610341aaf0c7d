package storage

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"tapioca/internal/par"
)

// Store is a pluggable backing byte store for a simulated file — the data
// plane's durable end. Timing stays with the System models; a Store only
// holds bytes. The io.ReaderAt/io.WriterAt shapes mean an *os.File works
// directly (see NewFileStore); reading a hole (never-written range) yields
// zeros. Implementations must be safe for concurrent use: the pipeline
// overlaps an aggregator's store I/O with the next round's aggregation, so
// flushes from different aggregators (and checksum readers) can run at once.
type Store interface {
	io.ReaderAt
	io.WriterAt
}

// Extent is one contiguous file extent paired with its payload bytes — for
// writes P is the source, for reads the destination. Batched extent lists
// are the store fast path: runs coalesced by CoalesceExtents land in one
// store transaction instead of one call (and one lock acquisition) per run.
type Extent struct {
	Off int64
	P   []byte
}

// extentWriter and extentReader are the optional batched fast paths a Store
// may implement (MemStore does): a whole coalesced extent list in one call.
type extentWriter interface {
	WriteExtents(exts []Extent) error
}
type extentReader interface {
	ReadExtents(exts []Extent) error
}

// memChunk is the MemStore page size: large enough that dense files stay in
// few map entries, small enough that sparse strided files don't over-commit.
const memChunk = 64 << 10

// MemStore is an in-memory sparse extent store: bytes live in fixed-size
// chunks allocated on first write, so a file that touches offsets billions
// apart costs memory proportional to the data, not the span. All methods
// are safe for concurrent use; the batched WriteExtents/ReadExtents paths
// take the lock once per extent list and cache the current chunk across
// runs, which is what the pipeline's coalesced flushes call.
type MemStore struct {
	mu     sync.RWMutex
	chunks map[int64][]byte
	hi     int64 // exclusive upper bound of written data
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{chunks: map[int64][]byte{}} }

// writeLocked stores p at off with the write lock held, reusing the
// caller's (chunk index, chunk) cache across calls so adjacent small runs
// skip repeat map lookups.
func (m *MemStore) writeLocked(p []byte, off int64, cci *int64, cc *[]byte) {
	n := 0
	for n < len(p) {
		ci := (off + int64(n)) / memChunk
		co := (off + int64(n)) % memChunk
		if ci != *cci || *cc == nil {
			c := m.chunks[ci]
			if c == nil {
				c = make([]byte, memChunk)
				m.chunks[ci] = c
			}
			*cci, *cc = ci, c
		}
		n += copy((*cc)[co:], p[n:])
	}
	if end := off + int64(len(p)); end > m.hi {
		m.hi = end
	}
}

// readLocked fills p from off with (at least) the read lock held; holes
// read as zeros.
func (m *MemStore) readLocked(p []byte, off int64, cci *int64, cc *[]byte) {
	n := 0
	for n < len(p) {
		ci := (off + int64(n)) / memChunk
		co := (off + int64(n)) % memChunk
		if ci != *cci {
			*cci, *cc = ci, m.chunks[ci]
		}
		if c := *cc; c != nil {
			n += copy(p[n:], c[co:])
		} else {
			z := min(int64(len(p)-n), memChunk-co)
			clear(p[n : n+int(z)])
			n += int(z)
		}
	}
}

// WriteAt stores p at offset off (io.WriterAt).
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: MemStore.WriteAt negative offset %d", off)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cci, cc := int64(-1), []byte(nil)
	m.writeLocked(p, off, &cci, &cc)
	return len(p), nil
}

// ReadAt fills p from offset off (io.ReaderAt); holes read as zeros.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: MemStore.ReadAt negative offset %d", off)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	cci, cc := int64(-1), []byte(nil)
	m.readLocked(p, off, &cci, &cc)
	return len(p), nil
}

// WriteExtents stores a coalesced extent list in one transaction: the lock
// is taken once and the current chunk is cached across extents — the
// run-aware fast path the pipeline's flushes use.
func (m *MemStore) WriteExtents(exts []Extent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cci, cc := int64(-1), []byte(nil)
	for _, e := range exts {
		if e.Off < 0 {
			return fmt.Errorf("storage: MemStore.WriteExtents negative offset %d", e.Off)
		}
		m.writeLocked(e.P, e.Off, &cci, &cc)
	}
	return nil
}

// ReadExtents fills a coalesced extent list in one transaction
// (WriteExtents' read counterpart); holes read as zeros.
func (m *MemStore) ReadExtents(exts []Extent) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cci, cc := int64(-1), []byte(nil)
	for _, e := range exts {
		if e.Off < 0 {
			return fmt.Errorf("storage: MemStore.ReadExtents negative offset %d", e.Off)
		}
		m.readLocked(e.P, e.Off, &cci, &cc)
	}
	return nil
}

// Size returns the exclusive upper bound of written data.
func (m *MemStore) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hi
}

// FileStore backs a simulated file with a real on-disk file. Unlike a bare
// *os.File, reads past EOF zero-fill (sparse-hole semantics, matching
// MemStore) instead of returning io.EOF mid-buffer. Concurrent use is safe:
// WriteAt/ReadAt map to pwrite/pread.
type FileStore struct {
	f *os.File
}

// NewFileStore creates (or truncates) path as the backing file.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileStore{f: f}, nil
}

// WriteAt stores p at offset off.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }

// ReadAt fills p from offset off, zero-filling past EOF.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.f.ReadAt(p, off)
	if err == io.EOF {
		clear(p[n:])
		return len(p), nil
	}
	return n, err
}

// Close closes the backing file.
func (s *FileStore) Close() error { return s.f.Close() }

// SetStore attaches a backing byte store to the file (the data plane's
// durable end). Files without a store get a MemStore automatically on the
// first payload-carrying write; SetStore is for choosing an on-disk store or
// sharing one across opens.
func (f *File) SetStore(s Store) { f.store = s }

// Store returns the file's backing store, or nil when no payload has ever
// been written (phantom mode).
func (f *File) Store() Store { return f.store }

// EnsureStore returns the file's backing store, attaching the default
// in-memory store on first use. Callers that hand store I/O to a background
// goroutine (the overlapped flush path) call this first, so the attach
// happens in a synchronized context.
func (f *File) EnsureStore() Store {
	if f.store == nil {
		f.store = NewMemStore()
	}
	return f.store
}

// StoreWriteAt stores payload bytes at a file offset, attaching the default
// MemStore on first use.
func (f *File) StoreWriteAt(p []byte, off int64) error {
	_, err := f.EnsureStore().WriteAt(p, off)
	return err
}

// StoreReadAt fills p from the backing store; without a store the file's
// content is all zeros (phantom writes carry no bytes).
func (f *File) StoreReadAt(p []byte, off int64) error {
	if f.store == nil {
		clear(p)
		return nil
	}
	_, err := f.store.ReadAt(p, off)
	return err
}

// CoalesceExtents appends to dst the file extents segs enumerate, pairing
// each with its sub-slice of buf (packed in enumeration order) and merging
// file-adjacent runs into single extents. Because buf is packed, runs that
// are adjacent in the file are adjacent in buf too, so a merged extent is
// one contiguous slice — one store call instead of one per run. A fully
// contiguous strided segment (Stride == Len) collapses to one extent
// without enumerating its runs. Overlapping runs are never merged, so
// enumeration (write) order is preserved.
func CoalesceExtents(dst []Extent, segs []Seg, buf []byte) []Extent {
	var pos, curOff, curPos, curLen int64
	emit := func(off, n int64) {
		if curLen > 0 && off == curOff+curLen {
			curLen += n
		} else {
			if curLen > 0 {
				dst = append(dst, Extent{Off: curOff, P: buf[curPos : curPos+curLen]})
			}
			curOff, curPos, curLen = off, pos, n
		}
		pos += n
	}
	for _, s := range segs {
		if s.Empty() {
			continue
		}
		if s.Count == 1 || s.Stride == s.Len {
			emit(s.Off, s.Len*s.Count)
			continue
		}
		for i := int64(0); i < s.Count; i++ {
			emit(s.Off+i*s.Stride, s.Len)
		}
	}
	if curLen > 0 {
		dst = append(dst, Extent{Off: curOff, P: buf[curPos : curPos+curLen]})
	}
	return dst
}

// StoreWriteExtents lands a coalesced extent list in the backing store,
// using the store's batched path when it has one.
func (f *File) StoreWriteExtents(exts []Extent) error {
	st := f.EnsureStore()
	if w, ok := st.(extentWriter); ok {
		return w.WriteExtents(exts)
	}
	for _, e := range exts {
		if _, err := st.WriteAt(e.P, e.Off); err != nil {
			return err
		}
	}
	return nil
}

// StoreReadExtents fills a coalesced extent list from the backing store
// (StoreWriteExtents' read counterpart); without a store every extent reads
// as zeros.
func (f *File) StoreReadExtents(exts []Extent) error {
	if f.store == nil {
		for _, e := range exts {
			clear(e.P)
		}
		return nil
	}
	if r, ok := f.store.(extentReader); ok {
		return r.ReadExtents(exts)
	}
	for _, e := range exts {
		if _, err := f.store.ReadAt(e.P, e.Off); err != nil {
			return err
		}
	}
	return nil
}

// StoreWrite scatters src — packed in the order segs enumerate — into the
// backing store at the segments' file extents. The segment list's order is
// the buffer layout: aggregation-buffer flushes pass their buffer-ordered
// run lists, which need not be offset-sorted. Adjacent runs coalesce into
// batched extents before touching the store.
func (f *File) StoreWrite(segs []Seg, src []byte) error {
	if need := TotalBytes(segs); need > int64(len(src)) {
		return fmt.Errorf("storage: StoreWrite on %q: segments need %d bytes, payload holds %d", f.Name, need, len(src))
	}
	return f.StoreWriteExtents(CoalesceExtents(nil, segs, src))
}

// StoreRead gathers the segments' file extents from the backing store into
// dst, packed in the order segs enumerate (StoreWrite's inverse).
func (f *File) StoreRead(segs []Seg, dst []byte) error {
	if need := TotalBytes(segs); need > int64(len(dst)) {
		return fmt.Errorf("storage: StoreRead on %q: segments need %d bytes, buffer holds %d", f.Name, need, len(dst))
	}
	return f.StoreReadExtents(CoalesceExtents(nil, segs, dst))
}

// crcScratch pools StoreChecksum's read buffers (one per concurrent shard)
// instead of allocating 64 KiB per call.
var crcScratch = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// checksumShardBytes is the minimum payload per parallel checksum shard;
// below ~one shard of work the serial path wins.
const checksumShardBytes = 4 << 20

// StoreChecksum returns the CRC-64/ECMA of the stored bytes over the given
// extents, enumerated in offset order per segment list — the storage end of
// the pipeline's end-to-end verification (dataplane.Plane.Checksum computes
// the application end over the same extents). Large extents shard across up
// to GOMAXPROCS goroutines and merge with CRC64Combine; the result is
// identical to the serial scan.
func (f *File) StoreChecksum(segs []Seg) (uint64, error) {
	total := TotalBytes(segs)
	shards := int(total / checksumShardBytes)
	if lim := runtime.GOMAXPROCS(0); shards > lim {
		shards = lim
	}
	if shards <= 1 {
		return f.storeChecksumSerial(segs)
	}
	parts := SplitSegs(segs, shards)
	crcs := make([]uint64, len(parts))
	errs := make([]error, len(parts))
	par.Map(shards, len(parts), func(i int) { crcs[i], errs[i] = f.storeChecksumSerial(parts[i]) })
	var crc uint64
	for i := range parts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		crc = CRC64Combine(crc, crcs[i], TotalBytes(parts[i]))
	}
	return crc, nil
}

// storeChecksumSerial is the single-stream checksum scan over segs.
func (f *File) storeChecksumSerial(segs []Seg) (uint64, error) {
	bp := crcScratch.Get().(*[]byte)
	defer crcScratch.Put(bp)
	buf := *bp
	var crc uint64
	for _, s := range segs {
		for i := int64(0); i < s.Count; i++ {
			off, remaining := s.Off+i*s.Stride, s.Len
			for remaining > 0 {
				n := min(remaining, int64(len(buf)))
				if err := f.StoreReadAt(buf[:n], off); err != nil {
					return 0, err
				}
				crc = CRC64(crc, buf[:n])
				off += n
				remaining -= n
			}
		}
	}
	return crc, nil
}

// SplitSegs cuts a segment list into at most parts consecutive slices of
// roughly equal byte size, preserving enumeration order across the
// boundaries — the sharding primitive behind parallel checksums. Contiguous
// segments split at any byte; strided segments split at run granularity
// (one run is the imbalance bound).
func SplitSegs(segs []Seg, parts int) [][]Seg {
	total := TotalBytes(segs)
	if parts <= 1 || total == 0 {
		return [][]Seg{segs}
	}
	target := (total + int64(parts) - 1) / int64(parts)
	out := make([][]Seg, 0, parts)
	var cur []Seg
	var curBytes int64
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur, curBytes = nil, 0
		}
	}
	for _, s := range segs {
		for !s.Empty() {
			room := target - curBytes
			if room <= 0 {
				flush()
				room = target
			}
			if s.Bytes() <= room {
				cur = append(cur, s)
				curBytes += s.Bytes()
				break
			}
			head, tail := splitSegFront(s, room)
			cur = append(cur, head)
			curBytes += head.Bytes()
			s = tail
		}
	}
	flush()
	return out
}

// splitSegFront cuts roughly n bytes (0 < n < s.Bytes()) off the front of
// s: contiguous segments split exactly at n, strided ones at the nearest
// run boundary (at least one run).
func splitSegFront(s Seg, n int64) (head, tail Seg) {
	if s.Count == 1 {
		return Contig(s.Off, n), Contig(s.Off+n, s.Len-n)
	}
	runs := n / s.Len
	if runs < 1 {
		runs = 1
	}
	if runs >= s.Count {
		runs = s.Count - 1
	}
	head = Seg{Off: s.Off, Len: s.Len, Stride: s.Stride, Count: runs}
	tail = Seg{Off: s.Off + runs*s.Stride, Len: s.Len, Stride: s.Stride, Count: s.Count - runs}
	return head, tail
}
