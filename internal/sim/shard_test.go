package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/sim"
	"repro/internal/stream"
)

// TestShardedEngineExactInSim is the tentpole's report-equivalence proof
// at the simulation layer: the sharded engine runs under the sim harness
// with the oracle checked at every step, for S ∈ {1, 2, 4}, on both the
// dense and the sparse ingestion path, and its per-run report (reports,
// top-change count, messages and bytes) matches the sequential engine's.
func TestShardedEngineExactInSim(t *testing.T) {
	const n, k, seed, steps = 20, 4, 31, 400
	for _, shards := range []int{1, 2, 4} {
		cfg := sim.Config{Steps: steps, K: k, CheckEvery: 1}

		seq := core.New(core.Config{N: n, K: k, Seed: seed})
		seqRep := sim.Run(seq, stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5}), cfg)

		sh := mustShard(t, fanout.Config{N: n, K: k, Seed: seed}, shards)
		shRep := sim.Run(sh, stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5}), cfg)
		sh.Close()

		if shRep.Errors != 0 {
			t.Fatalf("S=%d: %d oracle mismatches", shards, shRep.Errors)
		}
		if shRep.TopChanges != seqRep.TopChanges {
			t.Fatalf("S=%d: top-change trajectories differ: %d vs %d", shards, shRep.TopChanges, seqRep.TopChanges)
		}
		if shRep.Messages != seqRep.Messages || shRep.Bytes != seqRep.Bytes {
			t.Fatalf("S=%d ledgers differ: %+v/%+v vs %+v/%+v", shards, shRep.Messages, shRep.Bytes, seqRep.Messages, seqRep.Bytes)
		}

		// Sparse path under the delta harness, oracle-checked every step.
		shd := mustShard(t, fanout.Config{N: n, K: k, Seed: seed}, shards)
		deltaRep := sim.RunDelta(shd, stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Changed: 2, MaxStep: 900, Lo: 0, Hi: 1 << 18, Seed: 6,
		}), cfg)
		shd.Close()
		if deltaRep.Errors != 0 {
			t.Fatalf("S=%d delta: %d oracle mismatches", shards, deltaRep.Errors)
		}
	}
}

// TestTreeEngineExactInSim extends the proof to the hierarchical
// coordinator: trees of depth 2 and 3 run under the sim harness with the
// oracle checked at every step, dense and sparse, and their top-change
// trajectories and ledgers match the sequential engine's — a relay is a
// host of its subtree, so the tree changes where bids are filtered, never
// what is reported or charged.
func TestTreeEngineExactInSim(t *testing.T) {
	const n, k, seed, steps = 20, 4, 31, 400
	walk := func(seed uint64) stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: seed})
	}
	cfg := sim.Config{Steps: steps, K: k, CheckEvery: 1}
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	seqRep := sim.Run(seq, walk(5), cfg)

	for _, shape := range []struct{ branch, depth int }{{2, 2}, {4, 2}, {2, 3}} {
		tr, err := fanout.NewLoopbackTree(fanout.Config{N: n, K: k, Seed: seed}, shape.branch, shape.depth)
		if err != nil {
			t.Fatalf("%d^%d: %v", shape.branch, shape.depth, err)
		}
		trRep := sim.Run(tr, walk(5), cfg)
		tr.Close()
		if trRep.Errors != 0 {
			t.Fatalf("%d^%d: %d oracle mismatches", shape.branch, shape.depth, trRep.Errors)
		}
		if trRep.TopChanges != seqRep.TopChanges {
			t.Fatalf("%d^%d: top-change trajectories differ: %d vs %d", shape.branch, shape.depth, trRep.TopChanges, seqRep.TopChanges)
		}
		if trRep.Messages != seqRep.Messages || trRep.Bytes != seqRep.Bytes {
			t.Fatalf("%d^%d: ledgers differ: %+v/%+v vs %+v/%+v", shape.branch, shape.depth, trRep.Messages, trRep.Bytes, seqRep.Messages, seqRep.Bytes)
		}

		trd, err := fanout.NewLoopbackTree(fanout.Config{N: n, K: k, Seed: seed}, shape.branch, shape.depth)
		if err != nil {
			t.Fatalf("%d^%d: %v", shape.branch, shape.depth, err)
		}
		deltaRep := sim.RunDelta(trd, stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Changed: 2, MaxStep: 900, Lo: 0, Hi: 1 << 18, Seed: 6,
		}), cfg)
		trd.Close()
		if deltaRep.Errors != 0 {
			t.Fatalf("%d^%d delta: %d oracle mismatches", shape.branch, shape.depth, deltaRep.Errors)
		}
	}
}

// TestTreeEngineEpsValidInSim runs the ε mode on a depth-2 tree under the
// harness's ε oracle at every step.
func TestTreeEngineEpsValidInSim(t *testing.T) {
	const n, k, seed, steps = 20, 4, 31, 400
	tr, err := fanout.NewLoopbackTree(fanout.Config{N: n, K: k, Seed: seed, Epsilon: 0.05}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep := sim.Run(tr, stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5}),
		sim.Config{Steps: steps, K: k, CheckEvery: 1, Epsilon: 0.05})
	if rep.Errors != 0 {
		t.Fatalf("%d ε-oracle mismatches", rep.Errors)
	}
}
