package core

// Randomized property suite for synthesized aggregation trees (Config.Tree +
// treeplan.go): random declared patterns written through interior reduction
// levels — fan-in relays, topology-group trees, chains — must land bytes that
// CRC-verify end-to-end on every storage backend, exactly like the flat and
// staged pipelines they generalize. The suite also pins the degeneracy
// contract the search relies on (a flat-shaped tree books the identical
// schedule to the default pipeline, a staged-shaped tree to IntraNodeStaging),
// the message economics (a tree run never books more fabric messages than
// staged, and strictly fewer than flat on an all-to-all round structure),
// zero-rate fault-plan transparency, and tree collapse across an aggregator
// failover.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"tapioca/internal/fault"
	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

// interiorCounter sums coalesced sends from depths ≥ 2 across ranks — the
// signal that a run genuinely exercised interior tree levels rather than
// quietly falling back to the staged path.
func interiorCounter(interior, engaged *int64) func(rank int, w *Writer) {
	return func(rank int, w *Writer) {
		if w.interiorTree() == nil {
			return
		}
		atomic.AddInt64(engaged, 1)
		for d := 2; d < len(w.tp.msgs); d++ {
			atomic.AddInt64(interior, w.tp.msgs[d])
		}
	}
}

// TestTreeRoundTrip is the tree acceptance property: for every shape family
// and every backend, a multi-rank random strided write through the tree
// pipeline followed by a fresh read returns byte-identical data, with
// checksum parity between the write session, the read session and the
// backing store. The fan-in-2 leg must demonstrably run interior levels
// (deep partitions exist on every backend at 2 aggregators); wider fan-ins
// and group shapes are allowed to come out structurally degenerate on small
// topologies — the pipeline must then be transparently the staged one.
func TestTreeRoundTrip(t *testing.T) {
	shapes := []tree.Shape{
		{Kind: tree.FanIn, K: 2},
		{Kind: tree.FanIn, K: 3},
		{Kind: tree.FanIn, K: 8},
		{Kind: tree.GroupTree},
		{Kind: tree.Chain},
	}
	if testing.Short() || raceEnabledCore {
		shapes = shapes[:2]
	}
	for _, be := range dataPlaneBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for si := range shapes {
				sh := shapes[si]
				seed := int64(7000 + 100*si)
				rng := rand.New(rand.NewSource(seed))
				decl := genDeclared(rng, be.ranks, be.ranks*3)
				sys, fab := be.build()
				cfg := Config{
					Aggregators: 2, BufferSize: 8 << 10,
					SingleBuffer: si%2 == 1, Tree: &sh,
				}
				var interior, engaged int64
				stagedRun(t, sys, fab, be.ranks, be.rpn, decl, seed, cfg,
					fmt.Sprintf("tree-%s-%d", sh, si), interiorCounter(&interior, &engaged))
				if t.Failed() {
					t.Fatalf("shape %s (seed %d) failed", sh, seed)
				}
				if sh.Kind == tree.FanIn && sh.K == 2 {
					if engaged == 0 {
						t.Fatalf("shape %s built no interior tree on any rank", sh)
					}
					if interior == 0 {
						t.Fatalf("shape %s never forwarded through an interior level", sh)
					}
				}
			}
		})
	}
}

// TestTreeDegenerateShapesIdentical pins the execution half of the
// degeneracy contract: a session configured with the flat tree shape books
// the byte-identical store and the identical fabric-message schedule as the
// default pipeline, and the staged tree shape likewise reproduces
// IntraNodeStaging exactly. This is what lets the shape search return
// "flat"/"staged" and cost nothing.
func TestTreeDegenerateShapesIdentical(t *testing.T) {
	const seed = 5151
	be := dataPlaneBackends()[1] // lustre
	rng := rand.New(rand.NewSource(seed))
	decl := genDeclared(rng, be.ranks, be.ranks*3)

	for _, tc := range []struct {
		name  string
		base  Config
		shape tree.Shape
	}{
		{"flat", Config{Aggregators: 4, BufferSize: 8 << 10}, tree.Shape{Kind: tree.Flat}},
		{"staged", Config{Aggregators: 4, BufferSize: 8 << 10, IntraNodeStaging: true}, tree.Shape{Kind: tree.NodeStaged}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sysA, fabA := be.build()
			baseWrite, baseStore := stagedRun(t, sysA, fabA, be.ranks, be.rpn, decl, seed, tc.base, "base-"+tc.name)

			cfg := tc.base
			sh := tc.shape
			cfg.Tree = &sh
			sysB, fabB := be.build()
			treeWrite, treeStore := stagedRun(t, sysB, fabB, be.ranks, be.rpn, decl, seed, cfg, "tree-"+tc.name,
				func(rank int, w *Writer) {
					if w.interiorTree() != nil {
						t.Errorf("rank %d: degenerate shape %s built interior tree levels", rank, sh)
					}
				})

			if treeWrite != baseWrite || treeStore != baseStore {
				t.Fatalf("degenerate %s tree diverged: write %#x vs %#x, store %#x vs %#x",
					tc.name, treeWrite, baseWrite, treeStore, baseStore)
			}
			if fabB.FabricMessages() != fabA.FabricMessages() {
				t.Fatalf("degenerate %s tree changed the schedule: %d fabric messages vs %d",
					tc.name, fabB.FabricMessages(), fabA.FabricMessages())
			}
		})
	}
}

// TestTreeStoreBytesMatchFlat writes one fine-grained rank interleave (every
// round receives pieces from every member) three ways — flat, staged, and a
// fan-in-2 tree — and requires: identical landed bytes, the tree booking
// strictly fewer fabric messages than flat (interior coalescing), and never
// more than staged (each non-root vertex still sends exactly one inter-node
// message per engaged round).
func TestTreeStoreBytesMatchFlat(t *testing.T) {
	const seed = 6226
	be := dataPlaneBackends()[1] // lustre
	const l, n = 512, 64
	decl := make([][][]storage.Seg, be.ranks)
	for r := range decl {
		decl[r] = [][]storage.Seg{{storage.Strided(int64(r)*l, l, int64(be.ranks)*l, n)}}
	}
	base := Config{Aggregators: 2, BufferSize: 8 << 10}

	sysF, fabF := be.build()
	flatWrite, flatStore := stagedRun(t, sysF, fabF, be.ranks, be.rpn, decl, seed, base, "flat")

	staged := base
	staged.IntraNodeStaging = true
	sysS, fabS := be.build()
	stagedWrite, stagedStore := stagedRun(t, sysS, fabS, be.ranks, be.rpn, decl, seed, staged, "staged")

	sh := tree.Shape{Kind: tree.FanIn, K: 2}
	treed := base
	treed.Tree = &sh
	sysT, fabT := be.build()
	var interior, engaged int64
	treeWrite, treeStore := stagedRun(t, sysT, fabT, be.ranks, be.rpn, decl, seed, treed, "tree",
		interiorCounter(&interior, &engaged))

	if interior == 0 {
		t.Fatal("fan-in-2 tree forwarded nothing through interior levels — the tree leg never engaged")
	}
	if treeWrite != flatWrite || treeStore != flatStore || stagedWrite != flatWrite || stagedStore != flatStore {
		t.Fatalf("landed bytes diverged: flat %#x/%#x, staged %#x/%#x, tree %#x/%#x",
			flatWrite, flatStore, stagedWrite, stagedStore, treeWrite, treeStore)
	}
	if fabT.FabricMessages() >= fabF.FabricMessages() {
		t.Fatalf("tree booked %d fabric messages, flat %d — interior coalescing saved nothing",
			fabT.FabricMessages(), fabF.FabricMessages())
	}
	if fabT.FabricMessages() > fabS.FabricMessages() {
		t.Fatalf("tree booked %d fabric messages, staged only %d — relays added traffic",
			fabT.FabricMessages(), fabS.FabricMessages())
	}
}

// TestTreeZeroRateFaultsIdentical arms the tree pipeline with a zero-rate
// fault plan and requires the run to stay byte-identical to the unarmed one:
// same checksums, same fabric-message schedule. Fault instrumentation must
// be free when no fault fires, trees included.
func TestTreeZeroRateFaultsIdentical(t *testing.T) {
	const seed = 8484
	be := dataPlaneBackends()[0] // nullfs-backed MemStore
	rng := rand.New(rand.NewSource(seed))
	decl := genDeclared(rng, be.ranks, be.ranks*3)
	sh := tree.Shape{Kind: tree.FanIn, K: 2}
	cfg := Config{Aggregators: 2, BufferSize: 8 << 10, Tree: &sh}

	sysA, fabA := be.build()
	baseWrite, baseStore := stagedRun(t, sysA, fabA, be.ranks, be.rpn, decl, seed, cfg, "unarmed")

	armed := cfg
	armed.Faults = fault.NewPlan(fault.Config{Seed: 99}) // all rates zero
	sysB, fabB := be.build()
	fabB.SetFaults(armed.Faults)
	armedWrite, armedStore := stagedRun(t, sysB, fabB, be.ranks, be.rpn, decl, seed, armed, "armed")

	if armedWrite != baseWrite || armedStore != baseStore {
		t.Fatalf("zero-rate fault plan changed the tree bytes: write %#x vs %#x, store %#x vs %#x",
			armedWrite, baseWrite, armedStore, baseStore)
	}
	if fabB.FabricMessages() != fabA.FabricMessages() {
		t.Fatalf("zero-rate fault plan changed the tree schedule: %d fabric messages vs %d",
			fabB.FabricMessages(), fabA.FabricMessages())
	}
}

// TestTreeFailoverCollapse kills every partition's aggregator mid-run with
// failover armed under a fan-in-2 tree: the tree must collapse to the
// node-staged degenerate under the new root (interior phases become empty
// fences — the frozen budget keeps the fence schedule collective) and the
// round trip must still CRC-verify with zero data loss. The trees must have
// genuinely engaged before the deaths for the collapse to mean anything.
func TestTreeFailoverCollapse(t *testing.T) {
	const seed = 9393
	be := dataPlaneBackends()[1] // lustre
	rng := rand.New(rand.NewSource(seed))
	decl := genDeclared(rng, be.ranks, be.ranks*4)
	sh := tree.Shape{Kind: tree.FanIn, K: 2}
	cfg := Config{
		Aggregators: 2, BufferSize: 8 << 10, Tree: &sh,
		Faults:   fault.NewPlan(fault.Config{Seed: 17, AggrDeathRate: 1}),
		Recovery: true,
	}
	sys, fab := be.build()
	var interior, engaged, failovers, collapsed, lostBytes int64
	stagedRun(t, sys, fab, be.ranks, be.rpn, decl, seed, cfg, "tree-failover",
		interiorCounter(&interior, &engaged),
		func(rank int, w *Writer) {
			st := w.Stats()
			atomic.AddInt64(&failovers, st.Failovers)
			atomic.AddInt64(&lostBytes, st.LostBytes)
			if w.interiorTree() != nil && w.tp.collapsed {
				atomic.AddInt64(&collapsed, 1)
			}
		})
	if engaged == 0 || interior == 0 {
		t.Fatal("tree never engaged before the failover — the collapse property ran vacuously")
	}
	if failovers == 0 {
		t.Fatal("no failover fired despite AggrDeathRate=1")
	}
	if collapsed == 0 {
		t.Fatal("failover left the tree armed — expected a collapse to the staged degenerate")
	}
	if lostBytes != 0 {
		t.Fatalf("failover under a tree lost %d bytes", lostBytes)
	}
}
