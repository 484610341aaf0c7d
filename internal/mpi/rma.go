package mpi

import (
	"fmt"
	"slices"
	"sort"
)

// Win is one rank's handle on an RMA window: a per-rank exposed buffer that
// other ranks of the communicator target with one-sided PutGather/Get.
// Epochs are delimited by Fence calls, as in MPI_Win_fence active-target
// synchronization — the paper's Algorithm 3 rides exactly on this.
type Win struct {
	s *winShared
	c *Comm

	epoch int64 // the caller's next fence epoch, attended or skipped
}

type winShared struct {
	comm    *commShared
	size    int64 // bytes exposed per rank
	capture bool

	epochArrival int64      // completion horizon of the current epoch's ops
	rv           rendezvous // the fences' gates, one per epoch

	writes [][]WinSpan // per target, captured spans (allocated by SetCapture)

	// mem holds each rank's real window memory, allocated lazily on the
	// first payload-carrying access (the data plane). Phantom sessions —
	// every paper-scale figure — never allocate a byte here, nor the
	// per-rank table.
	mem [][]byte
}

// memOf returns (allocating on first use) rank r's real window memory.
func (s *winShared) memOf(r int) []byte {
	if s.mem == nil {
		s.mem = make([][]byte, len(s.comm.ranks))
	}
	if s.mem[r] == nil {
		s.mem[r] = make([]byte, s.size)
	}
	return s.mem[r]
}

// WinSpan records one captured one-sided access for verification.
type WinSpan struct {
	Offset, Bytes int64
	From          int    // origin comm rank
	Payload       []byte // the written bytes; nil for a phantom write
}

// WinCreate exposes size bytes on every rank of the communicator and returns
// the local window handle. Collective.
func (c *Comm) WinCreate(size int64) *Win {
	res := c.collective("mpi:win-create", nil, func(_ []any, maxT int64) (any, int64) {
		return c.CarveWin(size), c.TreeCost(maxT, 0)
	})
	return c.AdoptWin(res.(*Win))
}

// CarveWin builds a window exposing size bytes on every rank of c, the way
// Carve builds a communicator: not collective and free of virtual time, so
// one rank can build it inside a rendezvous the members already pay for.
// Each member binds it with AdoptWin before use.
func (c *Comm) CarveWin(size int64) *Win {
	return &Win{s: &winShared{
		comm: c.s,
		rv:   rendezvous{comm: c.s.id},
		size: size,
	}}
}

// AdoptWin returns the calling rank's handle on a carved window of c.
func (c *Comm) AdoptWin(w *Win) *Win {
	if w.s.comm != c.s {
		panic(fmt.Sprintf("mpi: adopting a window of comm %d on comm %d", w.s.comm.id, c.s.id))
	}
	return &Win{s: w.s, c: c}
}

// SetCapture enables span capture for verification in tests. Call before
// the first epoch; the setting is window-global.
func (w *Win) SetCapture(on bool) {
	w.s.capture = on
	if on && w.s.writes == nil {
		w.s.writes = make([][]WinSpan, len(w.s.comm.ranks))
	}
}

// bookPut performs a one-sided put's fabric reservation and extends the
// epoch's completion horizon; it moves no bytes.
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
	return senderFree
}

// PutGather transfers bytes from the caller into target's window at offset
// — MPI_Put. The transfer is booked at the caller's current time and the
// sender-free instant (local injection done, origin buffer reusable) is
// returned instead of held for: the caller must either HoldUntil it before
// its next booking, or hand it to FenceAfter when the put is the round's
// last — the Algorithm 3 pattern, which saves one context switch per rank
// per round. Remote completion is deferred to the next fence.
//
// A nil fill makes a phantom put that moves a virtual byte count. Otherwise
// fill writes the payload directly into the target's exposed window slice
// [offset, offset+bytes), with no intermediate buffer. fill runs at issue
// time, and the fence's happens-before edge publishes the bytes to the
// target.
func (w *Win) PutGather(target int, offset, bytes int64, fill func(dst []byte)) (senderFree int64) {
	senderFree = w.bookPut(target, offset, bytes)
	w.write(target, offset, bytes, fill)
	return senderFree
}

// write runs a put's or a staging deposit's fill into target's window
// memory [offset, offset+bytes) and, under SetCapture, records the span
// with a snapshot of the written bytes (none for a phantom write).
func (w *Win) write(target int, offset, bytes int64, fill func(dst []byte)) {
	var dst []byte
	if bytes > 0 && fill != nil {
		dst = w.s.memOf(target)[offset : offset+bytes]
		fill(dst)
	}
	if w.s.capture {
		w.s.writes[target] = append(w.s.writes[target],
			WinSpan{Offset: offset, Bytes: bytes, From: w.c.rank, Payload: slices.Clone(dst)})
	}
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
	w.write(leader, offset, bytes, fill)
	return senderFree, arrival
}

// GetScatter transfers bytes from target's window at offset to the caller
// — MPI_Get. The data is usable only after the next Fence (active-target
// semantics), so GetScatter blocks just for issuing overhead.
//
// A nil scatter makes a phantom get that moves a virtual byte count.
// Otherwise scatter receives the target's window slice [offset,
// offset+bytes) directly and distributes it into the final payload buffers,
// with no intermediate buffer. The slice is read at issue time, so issue
// GetScatter after the fence that published the buffer.
func (w *Win) GetScatter(target int, offset, bytes int64, scatter func(src []byte)) {
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
	c.p.Hold(callOverhead)
	if bytes > 0 && scatter != nil {
		scatter(w.s.memOf(target)[offset : offset+bytes])
	}
}

// LocalData returns (allocating on first use) the caller's own exposed
// window memory — what an aggregator's flush reads after a fence, and what
// its read-path prefetch fills before one.
func (w *Win) LocalData() []byte { return w.s.memOf(w.c.rank) }

// Fence closes the current epoch: every rank of the communicator arrives,
// and all are released once the epoch's one-sided operations have completed
// (the paper's Algorithm 3 uses this as the round barrier). It returns the
// release time. Fence is FenceOf with every rank attending.
func (w *Win) Fence() int64 { return w.fence(w.c.Size()) }

// FenceAfter is Fence entered at virtual time senderFree — the deferred
// completion of the round's last PutGather. The clock jumps without an extra
// scheduling point; the fence's park supplies the ordered yield
// (sim.Proc.JumpTo's contract: the fence entry bookkeeping is commutative
// and books nothing).
func (w *Win) FenceAfter(senderFree int64) int64 {
	return w.FenceOf(w.c.Size(), senderFree)
}

// FenceOf is FenceAfter for a fence attended by only n ranks of the
// communicator; the others call SkipFences for it. The caller's schedule
// decides who attends, and every attendee must pass the same n. The
// release is priced exactly like a whole-communicator Fence — the tree cost
// over the communicator's size from the latest arrival, and no earlier than
// the epoch's last one-sided completion — so a schedule whose absent ranks
// would only have arrived early, with nothing to put, releases at the same
// instant. Absent ranks must not issue one-sided operations in the epoch.
func (w *Win) FenceOf(n int, senderFree int64) int64 {
	if n < 1 || n > w.c.Size() {
		panic(fmt.Sprintf("mpi: fence of %d ranks on a window of %d", n, w.c.Size()))
	}
	w.c.p.JumpTo(senderFree)
	return w.fence(n)
}

// SkipFences passes over the caller's next k fences without attending them:
// the epochs are closed by the ranks that do.
func (w *Win) SkipFences(k int) { w.epoch += int64(k) }

// fence attends the caller's next epoch fence, which n ranks attend.
func (w *Win) fence(n int) int64 {
	s, c, p := w.s, w.c, w.c.p
	entry := p.Now()
	g, last := s.rv.arrive(fenceKind, w.epoch, n, entry)
	w.epoch++
	if !last {
		g.waiters = append(g.waiters, p)
		p.Park(fenceKind)
		p.TraceSpan("mpi", fenceKind, entry, p.Now(), 0)
		return p.Now() // the release: no waiter's clock is past maxT
	}
	// Last arriver: close the epoch and release everyone at the common time.
	release := max(c.TreeCost(g.maxT, 0), s.epochArrival)
	s.epochArrival = 0
	s.rv.release(p.Engine(), g, release)
	p.HoldUntil(release)
	p.TraceSpan("mpi", fenceKind, entry, p.Now(), 0)
	return release
}

// CapturedWrites returns the captured spans targeting rank r, sorted by
// offset. Only meaningful with SetCapture(true); spans accumulate across
// epochs.
func (w *Win) CapturedWrites(r int) []WinSpan {
	if w.s.writes == nil {
		return nil
	}
	spans := append([]WinSpan(nil), w.s.writes[r]...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	return spans
}
