package netrun

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fanout/fanouttest"
	"repro/internal/stream"
)

// TestTCPPipelinedSoak is the concurrency soak of the pipelined engine
// over real TCP: a violation-heavy workload (IID redraws force protocol
// executions, resets, and batched Winner/ResetBegin/Midpoint coalescing
// nearly every step) drives the reader goroutines, the flush-before-read
// guard and the batch framing through a few hundred steps while a
// sequential twin checks every report and the final ledgers. CI runs this
// package under -race, which makes this test the soak the pipelined
// fan-out is gated on.
func TestTCPPipelinedSoak(t *testing.T) {
	fanouttest.SetGather(t, 2) // exercise the concurrent gather on any machine
	const n, k, seed, steps, peers = 48, 6, 31, 300, 4
	links, served := fanouttest.TCPLinks(t, peers, Serve)
	eng, err := New(Config{N: n, K: k, Seed: seed}, links)
	if err != nil {
		t.Fatal(err)
	}

	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	srcA := stream.NewIID(stream.IIDConfig{N: n, Seed: 77, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
	srcB := stream.NewIID(stream.IIDConfig{N: n, Seed: 77, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
	va, vb := make([]int64, n), make([]int64, n)
	for s := 0; s < steps; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		if !slices.Equal(seq.Observe(va), eng.Observe(vb)) {
			t.Fatalf("step %d: reports differ under soak", s)
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("engine error under soak: %v", err)
	}
	if cs, cn := seq.Counts(), eng.Counts(); cs != cn {
		t.Fatalf("counts diverged under soak: seq=%v net=%v", cs, cn)
	}
	if bs, bn := seq.Ledger().TotalBytes(), eng.Bytes(); bs != bn {
		t.Fatalf("bytes diverged under soak: seq=%v net=%v", bs, bn)
	}
	eng.Close()
	served()
}
