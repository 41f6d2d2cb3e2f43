package sim

import (
	gort "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// TestRunDeltaMatchesDenseRun drives the same sparse trajectory through
// RunDelta (sparse ingestion) and Run (dense ingestion) and requires
// identical oracle-verified reports and identical message bills.
func TestRunDeltaMatchesDenseRun(t *testing.T) {
	const n, k, seed, steps = 64, 6, 31, 400
	mk := func() *stream.SparseWalk {
		return stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Lo: 0, Hi: 1 << 22, MaxStep: 1 << 11, Changed: 3, Seed: 32,
		})
	}
	cfg := Config{Steps: steps, K: k, CheckEvery: 1}

	sparse := RunDelta(core.New(core.Config{N: n, K: k, Seed: seed}), mk(), cfg)
	dense := Run(core.New(core.Config{N: n, K: k, Seed: seed}), mk(), cfg)

	if sparse.Errors != 0 {
		t.Fatalf("sparse run had %d oracle mismatches", sparse.Errors)
	}
	if dense.Errors != 0 {
		t.Fatalf("dense run had %d oracle mismatches", dense.Errors)
	}
	if sparse.Messages != dense.Messages {
		t.Fatalf("message bills differ: sparse=%v dense=%v", sparse.Messages, dense.Messages)
	}
	if sparse.TopChanges != dense.TopChanges {
		t.Fatalf("top changes differ: sparse=%d dense=%d", sparse.TopChanges, dense.TopChanges)
	}
}

// TestRunDeltaConcurrentEngine runs the sparse path on the sharded
// goroutine engine under the oracle.
func TestRunDeltaConcurrentEngine(t *testing.T) {
	const n, k, steps = 24, 4, 200
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(5))
	rt := runtime.New(runtime.Config{N: n, K: k, Seed: 41})
	defer rt.Close()
	src := stream.NewSparseWalk(stream.SparseWalkConfig{
		N: n, Lo: 0, Hi: 1 << 20, MaxStep: 1 << 10, Changed: 2, Seed: 42,
	})
	rep := RunDelta(rt, src, Config{Steps: steps, K: k, CheckEvery: 1})
	if rep.Errors != 0 {
		t.Fatalf("concurrent sparse run had %d oracle mismatches", rep.Errors)
	}
	if rep.Messages.Total() == 0 {
		t.Fatal("run recorded no communication at all")
	}
}
