package mpi

import (
	"fmt"
	"sort"
)

// Win is one rank's handle on an RMA window: a per-rank exposed buffer that
// other ranks of the communicator target with one-sided Put/Get. Epochs are
// delimited by Fence calls, as in MPI_Win_fence active-target
// synchronization — the paper's Algorithm 3 rides exactly on this.
type Win struct {
	s *winShared
	c *Comm

	fenceFn func(contribs []any, maxT int64) (any, int64) // cached Fence finish
}

type winShared struct {
	comm    *commShared
	size    int64 // bytes exposed per rank
	capture bool

	epochArrival int64 // completion horizon of the current epoch's ops
	epochOps     int
	epochBytes   int64

	fill     []int64     // bytes put into each rank's window this epoch
	lastFill []int64     // fill of the epoch closed by the last Fence
	writes   [][]WinSpan // per target, captured spans (when capture enabled)

	// mem holds each rank's real window memory, allocated lazily on the
	// first payload-carrying access (the data plane). Phantom sessions —
	// every paper-scale figure — never allocate a byte here.
	mem [][]byte
}

// memOf returns (allocating on first use) rank r's real window memory.
func (s *winShared) memOf(r int) []byte {
	if s.mem[r] == nil {
		s.mem[r] = make([]byte, s.size)
	}
	return s.mem[r]
}

// WinSpan records one captured one-sided access for verification.
type WinSpan struct {
	Offset, Bytes int64
	From          int // origin comm rank
	Payload       any
}

// WinCreate exposes size bytes on every rank of the communicator and returns
// the local window handle. Collective.
func (c *Comm) WinCreate(size int64) *Win {
	res := c.collective("mpi:win-create", nil, func(_ []any, maxT int64) (any, int64) {
		s := &winShared{
			comm:     c.s,
			size:     size,
			fill:     make([]int64, c.Size()),
			lastFill: make([]int64, c.Size()),
			writes:   make([][]WinSpan, c.Size()),
			mem:      make([][]byte, c.Size()),
		}
		return s, c.TreeCost(maxT, 0)
	})
	return &Win{s: res.(*winShared), c: c}
}

// SetCapture enables span capture for verification in tests. Call before
// the first epoch; the setting is window-global.
func (w *Win) SetCapture(on bool) { w.s.capture = on }

// Size returns the per-rank exposed size.
func (w *Win) Size() int64 { return w.s.size }

// Put transfers bytes from the caller into target's window at offset.
// The call blocks only for local injection (the origin buffer is reusable);
// remote completion is deferred to the next Fence — MPI_Put semantics.
func (w *Win) Put(target int, offset, bytes int64, payload any) {
	c := w.c
	senderFree := w.PutAsync(target, offset, bytes, payload)
	c.p.HoldUntil(senderFree)
}

// PutAsync is Put without the local-injection block: the transfer is booked
// at the caller's current time and the sender-free instant is returned
// instead of held for. The caller must either HoldUntil the returned time
// before its next booking, or hand it to FenceAfter when the put is the
// round's last — the Algorithm 3 pattern, which saves one context switch
// per rank per round.
func (w *Win) PutAsync(target int, offset, bytes int64, payload any) (senderFree int64) {
	senderFree = w.bookPut(target, offset, bytes)
	if b, ok := payload.([]byte); ok && len(b) > 0 {
		// Data plane: the put carries real bytes into the target's window
		// memory. The copy happens at issue time (the origin buffer is
		// reusable immediately, MPI_Put semantics), and the fence's
		// happens-before edge publishes it to the target.
		copy(w.s.memOf(target)[offset:], b)
		if w.s.capture {
			payload = append([]byte(nil), b...) // capture a stable snapshot
		}
	}
	if w.s.capture {
		w.s.writes[target] = append(w.s.writes[target], WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank, Payload: payload})
	}
	return senderFree
}

// bookPut performs a one-sided put's fabric reservation and epoch
// bookkeeping (shared by PutAsync and PutGather); it moves no bytes.
func (w *Win) bookPut(target int, offset, bytes int64) (senderFree int64) {
	c := w.c
	if target < 0 || target >= c.Size() {
		panic(fmt.Sprintf("mpi: Put to invalid rank %d", target))
	}
	if offset < 0 || offset+bytes > w.s.size {
		panic(fmt.Sprintf("mpi: Put [%d,%d) outside window of %d bytes", offset, offset+bytes, w.s.size))
	}
	senderFree, arrival := c.s.w.fabric.Reserve(c.p.Now(), c.Node(), c.NodeOfRank(target), bytes)
	c.p.TraceSpan("rma", "put", c.p.Now(), senderFree, bytes)
	if arrival > w.s.epochArrival {
		w.s.epochArrival = arrival
	}
	w.s.epochOps++
	w.s.epochBytes += bytes
	w.s.fill[target] += bytes
	return senderFree
}

// PutGather is PutAsync with a zero-copy payload: instead of receiving a
// pre-gathered buffer (which PutAsync must copy into window memory — two
// copies per payload byte), the caller's fill function writes the payload
// directly into the target's exposed window slice [offset, offset+bytes).
// Timing, epoch bookkeeping and MPI_Put semantics are identical to PutAsync
// over the same byte count; fill runs at issue time, so — as with PutAsync's
// issue-time copy — the fence's happens-before edge publishes the bytes to
// the target.
func (w *Win) PutGather(target int, offset, bytes int64, fill func(dst []byte)) (senderFree int64) {
	senderFree = w.bookPut(target, offset, bytes)
	if bytes > 0 && fill != nil {
		dst := w.s.memOf(target)[offset : offset+bytes]
		fill(dst)
		if w.s.capture {
			w.s.writes[target] = append(w.s.writes[target],
				WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank, Payload: append([]byte(nil), dst...)})
		}
		return senderFree
	}
	if w.s.capture {
		w.s.writes[target] = append(w.s.writes[target], WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank})
	}
	return senderFree
}

// StagePut deposits bytes into a co-located leader's window memory at
// [offset, offset+bytes) — the member-to-leader hop of intra-node
// pre-aggregation. It is priced as a shared-memory copy (Fabric.ReserveLocal
// at memory bandwidth: zero hops, no fabric links, no NIC), and it is not an
// epoch operation: the leader's coalesced PutGather is what enters the
// window epoch and carries the staged bytes to the aggregator. The caller
// must synchronize with the leader (a node-communicator barrier) before the
// leader reads the staged region; like PutGather, fill runs at issue time so
// that synchronization point is the happens-before edge.
func (w *Win) StagePut(leader int, offset, bytes int64, fill func(dst []byte)) (senderFree, arrival int64) {
	c := w.c
	if leader < 0 || leader >= c.Size() {
		panic(fmt.Sprintf("mpi: StagePut to invalid rank %d", leader))
	}
	if c.NodeOfRank(leader) != c.Node() {
		panic(fmt.Sprintf("mpi: StagePut to rank %d on node %d from node %d — leader must be co-located",
			leader, c.NodeOfRank(leader), c.Node()))
	}
	if offset < 0 || offset+bytes > w.s.size {
		panic(fmt.Sprintf("mpi: StagePut [%d,%d) outside window of %d bytes", offset, offset+bytes, w.s.size))
	}
	senderFree, arrival = c.s.w.fabric.ReserveLocal(c.p.Now(), c.Node(), bytes)
	c.p.TraceSpan("rma", "stage", c.p.Now(), senderFree, bytes)
	if bytes > 0 && fill != nil {
		dst := w.s.memOf(leader)[offset : offset+bytes]
		fill(dst)
		if w.s.capture {
			w.s.writes[leader] = append(w.s.writes[leader],
				WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank, Payload: append([]byte(nil), dst...)})
		}
		return senderFree, arrival
	}
	if w.s.capture {
		w.s.writes[leader] = append(w.s.writes[leader], WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank})
	}
	return senderFree, arrival
}

// Get transfers bytes from target's window at offset to the caller. The data
// is usable only after the next Fence (active-target semantics), so Get
// blocks just for issuing overhead.
func (w *Win) Get(target int, offset, bytes int64) {
	c := w.c
	if target < 0 || target >= c.Size() {
		panic(fmt.Sprintf("mpi: Get from invalid rank %d", target))
	}
	if offset < 0 || offset+bytes > w.s.size {
		panic(fmt.Sprintf("mpi: Get [%d,%d) outside window of %d bytes", offset, offset+bytes, w.s.size))
	}
	_, arrival := c.s.w.fabric.Reserve(c.p.Now(), c.NodeOfRank(target), c.Node(), bytes)
	c.p.TraceSpan("rma", "get", c.p.Now(), arrival, bytes)
	if arrival > w.s.epochArrival {
		w.s.epochArrival = arrival
	}
	w.s.epochOps++
	w.s.epochBytes += bytes
	c.p.Hold(c.s.w.cfg.Overhead)
}

// GetInto is Get with a real destination: the target's window bytes at
// [offset, offset+len(dst)) are copied into dst (the data plane). Timing is
// identical to Get over len(dst) bytes; as with Get, the data is only
// guaranteed published once the preceding Fence closed the exposing epoch —
// callers issue GetInto after the fence that published the buffer, so the
// copy at issue time observes the exposed bytes.
func (w *Win) GetInto(target int, offset int64, dst []byte) {
	w.Get(target, offset, int64(len(dst)))
	copy(dst, w.s.memOf(target)[offset:])
}

// GetScatter is GetInto with a zero-copy destination: instead of copying the
// target's window bytes into an intermediate buffer for the caller to
// scatter, the scatter function receives the window slice [offset,
// offset+bytes) directly and distributes it into the final payload buffers.
// Timing matches Get over the same byte count; the same publication contract
// as GetInto applies (issue after the fence that exposed the buffer).
func (w *Win) GetScatter(target int, offset, bytes int64, scatter func(src []byte)) {
	w.Get(target, offset, bytes)
	if bytes > 0 && scatter != nil {
		scatter(w.s.memOf(target)[offset : offset+bytes])
	}
}

// LocalData returns (allocating on first use) the caller's own exposed
// window memory — what an aggregator's flush reads after a fence, and what
// its read-path prefetch fills before one.
func (w *Win) LocalData() []byte { return w.s.memOf(w.c.rank) }

// Fence closes the current epoch: a collective that releases every rank once
// all one-sided operations of the epoch have completed (the paper's
// Algorithm 3 uses this as the round barrier). It returns the release time.
// The finish closure is cached on the handle — fences run once per round
// per rank, and a fresh closure per call is a heap allocation on that hot
// path.
func (w *Win) Fence() int64 {
	if w.fenceFn == nil {
		w.fenceFn = func(_ []any, maxT int64) (any, int64) {
			release := w.c.TreeCost(maxT, 0)
			if w.s.epochArrival > release {
				release = w.s.epochArrival
			}
			w.s.epochArrival = 0
			w.s.epochOps = 0
			w.s.epochBytes = 0
			copy(w.s.lastFill, w.s.fill)
			for i := range w.s.fill {
				w.s.fill[i] = 0
			}
			return release, release
		}
	}
	res := w.c.collective("mpi:win-fence", nil, w.fenceFn)
	return res.(int64)
}

// FenceAfter is Fence entered at virtual time senderFree — the deferred
// completion of the round's last PutAsync. The clock jumps without an extra
// scheduling point; the fence's collective park supplies the ordered yield
// (sim.Proc.JumpTo's contract: the fence entry bookkeeping is commutative
// and books nothing).
func (w *Win) FenceAfter(senderFree int64) int64 {
	w.c.p.JumpTo(senderFree)
	return w.Fence()
}

// EpochFill returns the bytes put into rank r's window during the current
// epoch (diagnostic; TAPIOCA asserts buffers are exactly filled).
func (w *Win) EpochFill(r int) int64 { return w.s.fill[r] }

// LastEpochFill returns the bytes that had been put into rank r's window in
// the epoch closed by the most recent Fence — what an aggregator is about to
// flush.
func (w *Win) LastEpochFill(r int) int64 { return w.s.lastFill[r] }

// CapturedWrites returns the captured spans targeting rank r, sorted by
// offset. Only meaningful with SetCapture(true); spans accumulate across
// epochs.
func (w *Win) CapturedWrites(r int) []WinSpan {
	spans := append([]WinSpan(nil), w.s.writes[r]...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	return spans
}
