package mpiio

import (
	"sync"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
)

// TestRecoveryLadder drives the guarded round I/O through its whole ladder
// on a fault-injected burst buffer over NullFS: transient failures retry
// with backoff until the tier goes down in the middle of a collective write,
// the rest of that write and the read-back that follows degrade to the
// backing file system, and every round still completes. Every round is one
// dense buffer-sized write, so the rounds that landed on the fallback tier
// are the written bytes the burst buffer never staged.
func TestRecoveryLadder(t *testing.T) {
	const (
		ranks   = 8
		aggrs   = 4
		buf     = 64 << 10
		perRank = 4 * buf
		total   = ranks * perRank
		rounds  = total / buf // round I/Os per collective call, over all aggregators
		down    = 2_000_000   // the tier's outage, inside the write call (ns)
	)
	topo := topology.NewFlat(ranks)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	bb := storage.NewBurstBuffer(storage.NewNullFS(), storage.BurstBufferConfig{})
	plan := fault.NewPlan(fault.Config{Seed: 11, StoreFailRate: 0.3, TierDownAfter: down})
	sys := storage.NewFaulty(bb, plan)
	rec := obs.NewRecorder(false)

	var mu sync.Mutex
	var writeStart, writeEnd int64
	var f *storage.File
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab, Recorder: rec}, func(c *mpi.Comm) {
		fh := Open(c, sys, "ladder", storage.FileOptions{}, Hints{CBNodes: aggrs, CBBufferSize: buf})
		mine := []storage.Seg{storage.Contig(int64(c.Rank())*perRank, perRank)}
		start := c.Proc().Now()
		if err := fh.WriteAtAll(mine); err != nil {
			t.Errorf("rank %d WriteAtAll: %v", c.Rank(), err)
		}
		end := c.Proc().Now()
		if err := fh.ReadAtAll(mine); err != nil {
			t.Errorf("rank %d ReadAtAll: %v", c.Rank(), err)
		}
		mu.Lock()
		if c.Rank() == 0 {
			writeStart, writeEnd, f = start, end, fh.Storage()
		}
		mu.Unlock()
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if writeStart >= down || writeEnd <= down {
		t.Fatalf("write call ran [%d, %d] ns, want the outage at %d ns inside it", writeStart, writeEnd, down)
	}

	// Every round of both calls completed.
	if f.WriteOps() != rounds || f.BytesWritten() != total {
		t.Errorf("wrote %d bytes in %d ops, want %d in %d", f.BytesWritten(), f.WriteOps(), total, rounds)
	}
	if f.ReadOps() != rounds || f.BytesRead() != total {
		t.Errorf("read %d bytes in %d ops, want %d in %d", f.BytesRead(), f.ReadOps(), total, rounds)
	}

	// The outage split the write: some rounds staged, the rest degraded.
	staged := bb.StagedBytes()
	if staged == 0 || staged == total || staged%buf != 0 {
		t.Fatalf("burst buffer staged %d of %d bytes, want a whole number of rounds short of all", staged, total)
	}
	reg := rec.Registry()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if counter(fault.MetricTierDown) != 1 {
		t.Errorf("tier_down = %d, want 1", counter(fault.MetricTierDown))
	}
	unstaged := (total - staged) / buf
	if got, want := counter(fault.MetricDegradedRounds), unstaged+rounds; got != want {
		t.Errorf("degraded_rounds = %d, want %d (%d write rounds past the outage, %d read rounds)",
			got, want, unstaged, rounds)
	}

	// Every transient was retried, and no op retried more than the policy
	// allows: the ops that reached the primary tier are the staged rounds
	// and at most one per aggregator that met the outage.
	retries, transients := counter(fault.MetricRetries), counter(fault.MetricStoreTransients)
	if transients == 0 || retries != transients {
		t.Errorf("retries = %d, transients = %d, want equal and > 0", retries, transients)
	}
	if primaryOps := staged/buf + aggrs; retries > fault.RetryAttempts*primaryOps {
		t.Errorf("retries = %d, want at most %d per op over %d ops", retries, fault.RetryAttempts, primaryOps)
	}
}

// TestSievedRoundsDegrade pins that sparse rounds' sieved writes run the
// recovery ladder like every other round flush: on a burst buffer that goes
// down at the start of the run, each aggregator's read-modify-write lands on
// the backing file system and counts as one degraded round.
func TestSievedRoundsDegrade(t *testing.T) {
	const (
		ranks  = 8
		aggrs  = 4
		block  = 1 << 10
		slot   = 2 * block // each rank writes the first half of its slot
		blocks = 16        // per rank
		total  = ranks * blocks * block
		rounds = 32 // round writes over all aggregators
	)
	topo := topology.NewFlat(ranks)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	bb := storage.NewBurstBuffer(storage.NewNullFS(), storage.BurstBufferConfig{})
	sys := storage.NewFaulty(bb, fault.NewPlan(fault.Config{Seed: 11, TierDownAfter: 1}))
	rec := obs.NewRecorder(false)

	var f *storage.File
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab, Recorder: rec}, func(c *mpi.Comm) {
		fh := Open(c, sys, "sieved", storage.FileOptions{}, Hints{CBNodes: aggrs, CBBufferSize: 8 << 10})
		mine := []storage.Seg{storage.Strided(int64(c.Rank())*slot, block, ranks*slot, blocks)}
		if err := fh.WriteAtAll(mine); err != nil {
			t.Errorf("rank %d WriteAtAll: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			f = fh.Storage()
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.WriteOps() != rounds || f.BytesWritten() != total {
		t.Errorf("wrote %d bytes in %d ops, want %d in %d", f.BytesWritten(), f.WriteOps(), total, rounds)
	}
	if staged := bb.StagedBytes(); staged != 0 {
		t.Errorf("burst buffer staged %d bytes past its outage, want 0", staged)
	}
	reg := rec.Registry()
	if got := reg.Counter(fault.MetricTierDown).Value(); got != 1 {
		t.Errorf("tier_down = %d, want 1", got)
	}
	if got := reg.Counter(fault.MetricDegradedRounds).Value(); got != rounds {
		t.Errorf("degraded_rounds = %d, want %d (every sieved round write)", got, rounds)
	}
}

// TestFallbackTierDownCompletes: when the tier behind a dead burst buffer is
// down too, the recovery ladder is exhausted and every round completes
// through the plain self-healing path. No round counts as degraded: none was
// served by a working fallback tier.
func TestFallbackTierDownCompletes(t *testing.T) {
	const (
		ranks   = 4
		aggrs   = 2
		buf     = 16 << 10
		perRank = 2 * buf
		total   = ranks * perRank
		rounds  = total / buf
	)
	topo := topology.NewFlat(ranks)
	fab := netsim.New(topo, netsim.Config{Contention: netsim.ContentionLinks})
	plan := fault.NewPlan(fault.Config{Seed: 5, TierDownAfter: 1})
	inner := storage.NewFaulty(storage.NewNullFS(), plan)
	sys := storage.NewFaulty(storage.NewBurstBuffer(inner, storage.BurstBufferConfig{}), plan)
	rec := obs.NewRecorder(false)

	var f *storage.File
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab, Recorder: rec}, func(c *mpi.Comm) {
		fh := Open(c, sys, "nested", storage.FileOptions{}, Hints{CBNodes: aggrs, CBBufferSize: buf})
		mine := []storage.Seg{storage.Contig(int64(c.Rank())*perRank, perRank)}
		if err := fh.WriteAtAll(mine); err != nil {
			t.Errorf("rank %d WriteAtAll: %v", c.Rank(), err)
		}
		if err := fh.ReadAtAll(mine); err != nil {
			t.Errorf("rank %d ReadAtAll: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			f = fh.Storage()
		}
		fh.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.WriteOps() != rounds || f.BytesWritten() != total || f.ReadOps() != rounds || f.BytesRead() != total {
		t.Errorf("wrote %d B in %d ops, read %d B in %d ops; want %d B in %d ops each way",
			f.BytesWritten(), f.WriteOps(), f.BytesRead(), f.ReadOps(), total, rounds)
	}
	if got := rec.Registry().Counter(fault.MetricDegradedRounds).Value(); got != 0 {
		t.Errorf("degraded_rounds = %d, want 0", got)
	}
}
