package sim_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/netrun"
	"repro/internal/runtime"
	"repro/internal/shardrun"
	"repro/internal/sim"
	"repro/internal/stream"
)

// epsWalk is the E19-style workload the ε tests run on: large positive
// values packed into one octave, drifting fast enough that the exact
// monitor sees frequent filter violations while the (1±ε) bands — a few
// percent of the value magnitude, i.e. several inter-rank gaps wide —
// absorb most of them.
func epsWalk(n int, seed uint64) *stream.RandomWalk {
	return stream.NewRandomWalk(stream.WalkConfig{
		N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 13, Seed: seed,
	})
}

// closer is implemented by the engines that own goroutines or links.
type closer interface{ Close() }

// mustNet and mustShard build loopback engines, failing the test on
// constructor errors (impossible for the valid configs used here).
func mustNet(tb testing.TB, cfg netrun.Config, peers int) *netrun.Engine {
	tb.Helper()
	e, err := netrun.New(cfg, netrun.LoopbackLinks(peers))
	if err != nil {
		tb.Fatalf("netrun.New: %v", err)
	}
	return e
}

func mustShard(tb testing.TB, cfg shardrun.Config, shards int) *shardrun.Engine {
	tb.Helper()
	e, err := shardrun.NewLoopbackTree(cfg, shards, 1)
	if err != nil {
		tb.Fatalf("shardrun.NewLoopbackTree: %v", err)
	}
	return e
}

// epsEngines builds one instance of every engine at the given tolerance.
func epsEngines(tb testing.TB, n, k int, seed uint64, eps float64) map[string]sim.Algorithm {
	return map[string]sim.Algorithm{
		"core":    core.New(core.Config{N: n, K: k, Seed: seed, Epsilon: eps}),
		"runtime": runtime.New(runtime.Config{N: n, K: k, Seed: seed, Epsilon: eps}),
		"netrun":  mustNet(tb, netrun.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 3),
		"shard=1": mustShard(tb, shardrun.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 1),
		"shard=3": mustShard(tb, shardrun.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 3),
	}
}

// TestEpsOracleAllEngines is the tentpole's validity proof: for every
// engine and every tolerance in the E19 sweep, each step's report is a
// valid ε-approximation of the true top-k (sim's ε-oracle), on the dense
// path.
func TestEpsOracleAllEngines(t *testing.T) {
	const n, k, seed, steps = 24, 4, 9, 400
	for _, eps := range []float64{0.01, 0.05, 0.1} {
		for name, alg := range epsEngines(t, n, k, seed, eps) {
			rep := sim.Run(alg, epsWalk(n, 5), sim.Config{Steps: steps, K: k, CheckEvery: 1, Epsilon: eps})
			if c, ok := alg.(closer); ok {
				c.Close()
			}
			if rep.Errors != 0 {
				t.Errorf("eps=%v %s: %d ε-oracle violations in %d steps", eps, name, rep.Errors, steps)
			}
		}
	}
}

// TestEpsOracleDelta covers the sparse ingestion path at tolerance.
func TestEpsOracleDelta(t *testing.T) {
	const n, k, seed, steps = 24, 4, 9, 400
	src := func() *stream.SparseWalk {
		return stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Changed: 3, MaxStep: 1 << 11, Lo: 1 << 18, Hi: 1 << 24, Seed: 6,
		})
	}
	for _, eps := range []float64{0.05, 0.1} {
		algs := map[string]sim.DeltaAlgorithm{
			"core":    core.New(core.Config{N: n, K: k, Seed: seed, Epsilon: eps}),
			"runtime": runtime.New(runtime.Config{N: n, K: k, Seed: seed, Epsilon: eps}),
			"netrun":  mustNet(t, netrun.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 3),
			"shard=2": mustShard(t, shardrun.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 2),
		}
		for name, alg := range algs {
			rep := sim.RunDelta(alg, src(), sim.Config{Steps: steps, K: k, CheckEvery: 1, Epsilon: eps})
			if c, ok := alg.(closer); ok {
				c.Close()
			}
			if rep.Errors != 0 {
				t.Errorf("eps=%v %s delta: %d ε-oracle violations", eps, name, rep.Errors)
			}
		}
	}
}

// TestEpsEngineEquivalence pins that the three flat engines and the
// S=1 sharded engine stay bit-identical to each other at a non-zero
// tolerance too: same reports, same message counts, same charged bytes.
// (At ε=0 the pre-existing equivalence suites already pin this.)
func TestEpsEngineEquivalence(t *testing.T) {
	const n, k, seed, steps, eps = 20, 3, 41, 300, 0.05
	type snap struct {
		rep   sim.Report
		count comm.Counts
	}
	got := map[string]snap{}
	for name, alg := range epsEngines(t, n, k, seed, eps) {
		rep := sim.Run(alg, epsWalk(n, 11), sim.Config{Steps: steps, K: k, CheckEvery: 1, Epsilon: eps})
		count := alg.Counts()
		if c, ok := alg.(closer); ok {
			c.Close()
		}
		if rep.Errors != 0 {
			t.Fatalf("%s: %d ε-oracle violations", name, rep.Errors)
		}
		got[name] = snap{rep: rep, count: count}
	}
	ref := got["core"]
	for _, name := range []string{"runtime", "netrun", "shard=1"} {
		g := got[name]
		if g.count != ref.count {
			t.Errorf("%s counts %+v != core %+v at eps=%v", name, g.count, ref.count, eps)
		}
		if g.rep.Bytes != ref.rep.Bytes {
			t.Errorf("%s bytes %+v != core %+v at eps=%v", name, g.rep.Bytes, ref.rep.Bytes, eps)
		}
		if g.rep.TopChanges != ref.rep.TopChanges {
			t.Errorf("%s top-change trajectory %d != core %d", name, g.rep.TopChanges, ref.rep.TopChanges)
		}
	}
}

// TestEpsSavesCommunication is the point of the approximate mode: on the
// same drifting workload, a tolerant monitor must exchange strictly
// fewer messages (and reset strictly less often) than the exact one,
// and larger tolerances must not cost more than smaller ones.
func TestEpsSavesCommunication(t *testing.T) {
	const n, k, seed, steps = 64, 8, 17, 1500
	totals := map[float64]int64{}
	for _, eps := range []float64{0, 0.01, 0.1} {
		m := core.New(core.Config{N: n, K: k, Seed: seed, Epsilon: eps})
		rep := sim.Run(m, epsWalk(n, 23), sim.Config{Steps: steps, K: k, CheckEvery: 1, Epsilon: eps})
		if rep.Errors != 0 {
			t.Fatalf("eps=%v: %d oracle violations", eps, rep.Errors)
		}
		totals[eps] = rep.Messages.Total()
	}
	if totals[0.01] >= totals[0] {
		t.Errorf("eps=0.01 used %d messages, exact used %d — no saving", totals[0.01], totals[0])
	}
	if totals[0.1] >= totals[0.01] {
		t.Errorf("eps=0.1 used %d messages, eps=0.01 used %d — saving did not grow", totals[0.1], totals[0.01])
	}
}

// TestEpsValidUnit pins the ε-oracle predicate itself on hand-built
// vectors.
func TestEpsValidUnit(t *testing.T) {
	vals := []int64{1000, 1040, 900, 10}
	// Exact top-2 is {0, 1}.
	if !sim.EpsValid(vals, []int{0, 1}, 2, 0) {
		t.Error("exact top set rejected at eps=0")
	}
	if sim.EpsValid(vals, []int{0, 2}, 2, 0) {
		t.Error("wrong set accepted at eps=0")
	}
	// {0, 2}: excluded node 1 (1040) vs included node 2 (900) — about 15%
	// apart, too far for eps=0.05 but fine for eps=0.2.
	if sim.EpsValid(vals, []int{0, 2}, 2, 0.05) {
		t.Error("15-percent-off set accepted at eps=0.05")
	}
	if !sim.EpsValid(vals, []int{0, 2}, 2, 0.2) {
		t.Error("15-percent-off set rejected at eps=0.2")
	}
	// Malformed reports never validate.
	for _, bad := range [][]int{nil, {0}, {0, 0}, {1, 0}, {0, 9}} {
		if sim.EpsValid(vals, bad, 2, 0.5) {
			t.Errorf("malformed report %v accepted", bad)
		}
	}
	// k == n excludes nothing and is always valid.
	if !sim.EpsValid(vals, []int{0, 1, 2, 3}, 4, 0) {
		t.Error("k=n report rejected")
	}
}
