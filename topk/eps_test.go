package topk

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

func TestEpsilonValidation(t *testing.T) {
	for _, eps := range []float64{-0.01, 1, 2, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Nodes: 4, K: 2, Epsilon: eps}); err == nil {
			t.Errorf("Epsilon=%v accepted", eps)
		}
	}
	// A rejected Epsilon must still release the transport's serve loops.
	if _, err := New(Config{Nodes: 4, K: 2, Epsilon: 2, Transport: Loopback(2)}); err == nil {
		t.Fatal("bad Epsilon with transport accepted")
	}
}

// TestEpsilonAllEngines runs every engine at ε=0.05 over one drifting
// trace and checks the public contract: each report is a valid
// ε-approximation of the true top-k, and the tolerant run communicates
// strictly less than the exact run of the same engine. (The in-process
// engine runs it at the trace's n alone; ε on its shard pool is the
// chain/conc/eps=0.05 rows of TestCheckpointRestoreBitIdentical.)
func TestEpsilonAllEngines(t *testing.T) {
	const n, k, steps, eps = 24, 4, 400, 0.05
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 13, Seed: 19})
	matrix := stream.Collect(src, steps)
	cfgs := engineConfigs(n, k)
	delete(cfgs, "conc")
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			exact, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer exact.Close()
			cfgEps := cfg
			cfgEps.Epsilon = eps
			if cfg.Transport != nil {
				cfgEps.Transport = Loopback(2) // transports are single-use
			}
			approx, err := New(cfgEps)
			if err != nil {
				t.Fatal(err)
			}
			defer approx.Close()
			for s, row := range matrix {
				if _, err := exact.Observe(row); err != nil {
					t.Fatal(err)
				}
				top, err := approx.Observe(row)
				if err != nil {
					t.Fatal(err)
				}
				if !sim.EpsValid(row, top, k, eps) {
					t.Fatalf("step %d: report %v is not a valid %.0f%%-approximation", s, top, eps*100)
				}
			}
			if a, e := approx.Counts().Total(), exact.Counts().Total(); a >= e {
				t.Errorf("eps=%v used %d messages, exact used %d — no saving", eps, a, e)
			}
			if a, e := approx.Bytes().Total(), exact.Bytes().Total(); a >= e {
				t.Errorf("eps=%v charged %d bytes, exact charged %d — no saving", eps, a, e)
			}
		})
	}
}

// TestEpsilonZeroBitIdentical pins the ε=0 contract at the public layer:
// an explicit zero tolerance is the exact monitor, message for message
// and byte for byte.
func TestEpsilonZeroBitIdentical(t *testing.T) {
	const n, k, steps = 16, 3, 300
	a, err := New(Config{Nodes: n, K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Nodes: n, K: k, Seed: 7, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 900, Seed: 3})
	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		src.Step(vals)
		ta, err := a.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ta, tb) {
			t.Fatalf("step %d: reports diverge: %v vs %v", s, ta, tb)
		}
	}
	if a.Counts() != b.Counts() || a.Bytes() != b.Bytes() || a.Phases() != b.Phases() || a.BytesByPhase() != b.BytesByPhase() || a.Stats() != b.Stats() {
		t.Fatal("explicit Epsilon=0 is not bit-identical to the exact monitor")
	}
}

// FuzzObserveBoundary feeds arbitrary fuzzer-chosen observations through
// the sequential engine's public API: in-domain vectors must report the
// oracle set, out-of-domain vectors must error, and nothing may panic.
func FuzzObserveBoundary(f *testing.F) {
	f.Add(int64(0), int64(1), int64(2), int64(3))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(0), int64(0))
	f.Add(int64(math.MaxInt64/4), int64(-math.MaxInt64/4), int64(math.MaxInt64/4+1), int64(7))
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3 int64) {
		m, err := New(Config{Nodes: 4, K: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		vals := []int64{v0, v1, v2, v3}
		mv := m.MaxValue()
		legal := true
		for _, v := range vals {
			if v > mv || v < -mv {
				legal = false
			}
		}
		top, err := m.Observe(vals)
		if legal {
			if err != nil {
				t.Fatalf("in-domain %v rejected: %v", vals, err)
			}
			want, oerr := Oracle(vals, 2)
			if oerr != nil {
				t.Fatalf("oracle rejected in-domain %v: %v", vals, oerr)
			}
			if !slices.Equal(top, want) {
				t.Fatalf("report %v, oracle %v", top, want)
			}
		} else if err == nil {
			t.Fatalf("out-of-domain %v accepted", vals)
		}
	})
}
