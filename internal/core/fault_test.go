package core

// Randomized fault-schedule property suite for the recovery machinery
// (internal/fault + recover.go): with deterministic fault injection armed on
// the fabric and the storage tier and the self-healing paths enabled, every
// random round trip must still land byte-identical data on every backend;
// the same seed must produce the identical recovery-event profile run over
// run; a mid-pipeline aggregator death without recovery must surface as the
// engine's enriched deadlock diagnosis (with the round's phase label), not a
// hang; and corruption must flip end-to-end checksums exactly when repair is
// disarmed.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/sim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/workload"
)

// faultEvents is the per-run recovery-event profile used by the determinism
// property: Stats sums across ranks plus the registry's fault counters.
type faultEvents struct {
	retries, failovers, replayed, degraded, repaired, lostFlushes, lostBytes int64
	counters                                                                 map[string]int64
}

// runFaultTrip runs one write+read round trip over a faulty backend and
// returns the recovery-event profile. All data checks (VerifyData, session
// checksum parity, store checksum parity) report through fail.
func runFaultTrip(t *testing.T, be backend, fc fault.Config, recovery bool, seed int64) faultEvents {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	decl := genDeclared(rng, be.ranks, be.ranks*3)
	sys, fab := be.build()
	plan := fault.NewPlan(fc)
	fab.SetFaults(plan)
	fsys := storage.NewFaulty(sys, plan)
	recorder := obs.NewRecorder(false)

	var mu sync.Mutex
	var failures []string
	ev := faultEvents{}
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_, err := mpi.Run(mpi.Config{Ranks: be.ranks, RanksPerNode: be.rpn, Fabric: fab, Recorder: recorder}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = fsys.Create("faulttrip", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		mine := decl[c.Rank()]
		data := workload.FillData(mine, uint64(seed))
		cfg := Config{Aggregators: 4, BufferSize: 8 << 10, Faults: plan, Recovery: recovery}

		w := New(c, fsys, f, cfg)
		if err := w.InitData(mine, data); err != nil {
			fail("rank %d InitData(write): %v", c.Rank(), err)
			return
		}
		if err := w.WriteAll(); err != nil {
			fail("rank %d WriteAll: %v", c.Rank(), err)
			return
		}
		writeCRC := w.DataChecksum()
		st := w.Stats()
		mu.Lock()
		ev.retries += st.Retries
		ev.failovers += st.Failovers
		ev.replayed += st.ReplayedRounds
		ev.degraded += st.DegradedFlushes
		ev.repaired += st.RepairedExtents
		ev.lostFlushes += st.LostFlushes
		ev.lostBytes += st.LostBytes
		mu.Unlock()
		c.Barrier()

		rbuf := make([][]byte, len(data))
		for i := range data {
			rbuf[i] = make([]byte, len(data[i]))
		}
		r := New(c, fsys, f, cfg)
		if err := r.InitData(mine, rbuf); err != nil {
			fail("rank %d InitData(read): %v", c.Rank(), err)
			return
		}
		if err := r.ReadAll(); err != nil {
			fail("rank %d ReadAll: %v", c.Rank(), err)
			return
		}
		if err := workload.VerifyData(mine, uint64(seed), rbuf); err != nil {
			fail("rank %d read-back: %v", c.Rank(), err)
		}
		if got := r.DataChecksum(); got != writeCRC {
			fail("rank %d checksum: wrote %#x, read %#x", c.Rank(), writeCRC, got)
		}
		var runs []storage.Seg
		for _, segs := range mine {
			storage.Enumerate(segs, 1<<20, func(off, length int64) {
				runs = append(runs, storage.Contig(off, length))
			})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
		if crc, err := f.StoreChecksum(runs); err != nil {
			fail("rank %d StoreChecksum: %v", c.Rank(), err)
		} else if crc != writeCRC {
			fail("rank %d store checksum %#x != write checksum %#x", c.Rank(), crc, writeCRC)
		}
		c.Barrier()
	})
	for _, f := range failures {
		t.Error(f)
	}
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	snap := recorder.Registry().Snapshot()
	ev.counters = map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fault.") || strings.HasPrefix(name, "recovery.") {
			ev.counters[name] = v
		}
	}
	return ev
}

// TestFaultRecoveryRoundTrip is the self-healing acceptance property: with
// every fault class injected (transients, latency spikes, link loss,
// stragglers, corruption, aggregator death — and a mid-run burst-buffer
// outage on the staging backend) and recovery armed, random multi-rank
// round trips still CRC-verify on every backend, and the write sessions
// absorb zero data loss.
func TestFaultRecoveryRoundTrip(t *testing.T) {
	for _, be := range dataPlaneBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			fc := fault.Profile(0xFA017, 0.15)
			if be.name == "burstbuffer" {
				// Kill the staging tier mid-run so the degraded direct-to-PFS
				// path runs under the same verification.
				fc.TierDownAfter = 5 * sim.Millisecond
			}
			ev := runFaultTrip(t, be, fc, true, 0xC0FFEE)
			if ev.lostBytes != 0 {
				t.Errorf("recovery-enabled write lost %d bytes (%d flushes)", ev.lostBytes, ev.lostFlushes)
			}
			if ev.retries+ev.failovers+ev.repaired+ev.degraded == 0 {
				t.Error("fault plan injected nothing — the property ran vacuously")
			}
		})
	}
}

// TestFaultSameSeedSameEvents pins determinism: two fresh runs of the same
// (seed, rate) schedule produce the identical recovery-event profile — same
// Stats sums and the same registry counters, event for event.
func TestFaultSameSeedSameEvents(t *testing.T) {
	be := dataPlaneBackends()[1] // lustre
	fc := fault.Profile(0xD5EED, 0.2)
	a := runFaultTrip(t, be, fc, true, 7)
	b := runFaultTrip(t, be, fc, true, 7)
	if a.retries != b.retries || a.failovers != b.failovers || a.replayed != b.replayed ||
		a.degraded != b.degraded || a.repaired != b.repaired ||
		a.lostFlushes != b.lostFlushes || a.lostBytes != b.lostBytes {
		t.Fatalf("same seed, different stats:\n a: %+v\n b: %+v", a, b)
	}
	if len(a.counters) != len(b.counters) {
		t.Fatalf("same seed, different counter sets:\n a: %v\n b: %v", a.counters, b.counters)
	}
	for name, v := range a.counters {
		if b.counters[name] != v {
			t.Errorf("counter %s: %d vs %d", name, v, b.counters[name])
		}
	}
	if a.counters[fault.MetricStoreTransients] == 0 {
		t.Error("no transients injected — determinism checked vacuously")
	}
}

// TestAggregatorDeathWithoutRecoveryDiagnosed: a scheduled aggregator death
// with no failover armed must not hang the run — the orphaned members park
// at the window fence and the engine's deadlock detector names them with
// their pipeline phase labels.
func TestAggregatorDeathWithoutRecoveryDiagnosed(t *testing.T) {
	topo := topology.NewFlat(4)
	fab := netsim.New(topo, netsim.Config{})
	sys := storage.NewNullFS()
	plan := fault.NewPlan(fault.Config{Seed: 11, AggrDeathRate: 1})
	const ranks = 8
	var mu sync.Mutex
	var aggErr error
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 2, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("orphans", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		// 4 rounds of 4 KB across one partition: the death lands in [1, 4).
		decl := [][]storage.Seg{{storage.Contig(int64(c.Rank())*8<<10, 8<<10)}}
		w := New(c, sys, f, Config{Aggregators: 1, BufferSize: 16 << 10, Faults: plan})
		if err := w.Init(decl); err != nil {
			panic(err)
		}
		if err := w.WriteAll(); err != nil {
			mu.Lock()
			aggErr = err
			mu.Unlock()
		}
		c.Barrier()
	})
	if !errors.Is(aggErr, fault.ErrAggregatorDead) {
		t.Errorf("demoted aggregator error = %v, want ErrAggregatorDead", aggErr)
	}
	if err == nil {
		t.Fatal("orphaned members completed — expected a diagnosed deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected a deadlock diagnosis, got: %v", err)
	}
	if !strings.Contains(err.Error(), "[phase: tapioca round") {
		t.Fatalf("deadlock diagnosis lacks the pipeline phase label: %v", err)
	}
}

// TestCorruptionRepair: a scheduled bit-flip per flushed round must be
// visible end-to-end (store checksum diverges from the write checksum) when
// repair is disarmed, and invisible (checksums match) when the targeted
// verify-and-repair scrub is armed.
func TestCorruptionRepair(t *testing.T) {
	for _, tc := range []struct{ repair, single bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		repair, single := tc.repair, tc.single
		name := fmt.Sprintf("repair=%v", repair)
		if single {
			name += "-single"
		}
		t.Run(name, func(t *testing.T) {
			const ranks, rpn = 8, 2
			seed := int64(31337)
			rng := rand.New(rand.NewSource(seed))
			decl := genDeclared(rng, ranks, ranks*3)
			topo := topology.ThetaDragonfly(4, topology.RouteMinimal)
			fab := netsim.New(topo, netsim.Config{})
			sys := storage.NewLustre(topo, fab, storage.LustreConfig{NumOST: 4})
			plan := fault.NewPlan(fault.Config{Seed: 99, CorruptRate: 1})
			recorder := obs.NewRecorder(false)
			var mu sync.Mutex
			mismatches, matches := 0, 0
			_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab, Recorder: recorder}, func(c *mpi.Comm) {
				var f *storage.File
				if c.Rank() == 0 {
					f = sys.Create("corrupt", storage.FileOptions{StripeCount: 4, StripeSize: 16 << 10})
				}
				f = c.Bcast(0, 8, f).(*storage.File)
				mine := decl[c.Rank()]
				data := workload.FillData(mine, uint64(seed))
				w := New(c, sys, f, Config{Aggregators: 2, BufferSize: 8 << 10, SingleBuffer: single, Faults: plan, Recovery: repair})
				if err := w.InitData(mine, data); err != nil {
					panic(err)
				}
				if err := w.WriteAll(); err != nil {
					panic(err)
				}
				writeCRC := w.DataChecksum()
				c.Barrier()
				var runs []storage.Seg
				for _, segs := range mine {
					storage.Enumerate(segs, 1<<20, func(off, length int64) {
						runs = append(runs, storage.Contig(off, length))
					})
				}
				sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
				crc, err := f.StoreChecksum(runs)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				if crc == writeCRC {
					matches++
				} else {
					mismatches++
				}
				mu.Unlock()
				c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := recorder.Registry().Snapshot()
			if snap.Counters[fault.MetricCorruptions] == 0 {
				t.Fatal("no corruption injected — the property ran vacuously")
			}
			if repair {
				if mismatches != 0 {
					t.Errorf("repair armed, but %d ranks see a damaged store checksum", mismatches)
				}
				if snap.Counters[fault.MetricRepairedExtents] == 0 {
					t.Error("repair armed but no extents repaired")
				}
			} else if mismatches == 0 {
				t.Errorf("repair disarmed, but all %d rank checksums still match — damage invisible", matches)
			}
		})
	}
}

// TestFallbackTierDownLosesFlush: when the tier behind a dead burst buffer is
// down too, the recovery ladder has no rung left. Every flush is counted as
// lost and the session completes, instead of retrying the dead fallback tier
// forever without advancing virtual time.
func TestFallbackTierDownLosesFlush(t *testing.T) {
	const ranks = 4
	topo := topology.NewFlat(ranks)
	fab := netsim.New(topo, netsim.Config{})
	plan := fault.NewPlan(fault.Config{Seed: 5, TierDownAfter: 1})
	inner := storage.NewFaulty(storage.NewNullFS(), plan)
	sys := storage.NewFaulty(storage.NewBurstBuffer(inner, storage.BurstBufferConfig{}), plan)
	var mu sync.Mutex
	var st Stats
	_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: 1, Fabric: fab}, func(c *mpi.Comm) {
		var f *storage.File
		if c.Rank() == 0 {
			f = sys.Create("nested", storage.FileOptions{})
		}
		f = c.Bcast(0, 8, f).(*storage.File)
		decl := [][]storage.Seg{{storage.Contig(int64(c.Rank())*32<<10, 32<<10)}}
		w := New(c, sys, f, Config{Aggregators: 1, BufferSize: 16 << 10, Faults: plan, Recovery: true})
		if err := w.Init(decl); err != nil {
			t.Errorf("rank %d Init: %v", c.Rank(), err)
			return
		}
		if err := w.WriteAll(); err != nil {
			t.Errorf("rank %d WriteAll: %v", c.Rank(), err)
		}
		s := w.Stats()
		mu.Lock()
		st.Flushes += s.Flushes
		st.LostFlushes += s.LostFlushes
		st.DegradedFlushes += s.DegradedFlushes
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LostFlushes == 0 || st.LostFlushes != st.Flushes {
		t.Errorf("lost %d of %d flushes, want every flush lost", st.LostFlushes, st.Flushes)
	}
	if st.DegradedFlushes != 0 {
		t.Errorf("%d flushes counted as served by the dead fallback tier", st.DegradedFlushes)
	}
}
