package netrun

import (
	"testing"

	"repro/internal/stream"
)

// TestNetworkedObserveZeroAllocs extends the hot-path allocation
// regression (internal/core's TestObserveZeroAllocs) across the wire: a
// violation-free networked step over pipe links — engine encode, pooled
// pipe frames, host decode, node bank, reply encode, gather — must not
// allocate at all once every scratch buffer has warmed up, under either
// gather. This is what keeps a large, mostly-idle deployment free
// of GC pressure.
func TestNetworkedObserveZeroAllocs(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, peers = 256, 4
			e := mustLoopback(t, Config{N: n, K: 4, Seed: 21}, peers)
			defer e.Close()

			// Dense steps on a calm walk: mostly violation-free, with the
			// occasional violation and reset to warm those buffers too.
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Seed: 22})
			vals := make([]int64, n)
			for s := 0; s < 2000; s++ {
				src.Step(vals)
				e.Observe(vals)
			}
			if avg := testing.AllocsPerRun(500, func() {
				src.Step(vals)
				e.Observe(vals)
			}); avg != 0 {
				t.Errorf("dense networked Observe allocates %.2f per step, want 0", avg)
			}

			// The sparse path over a delta-native workload must be clean
			// as well.
			d := mustLoopback(t, Config{N: n, K: 4, Seed: 23}, peers)
			defer d.Close()
			dsrc := stream.NewSparseWalk(stream.SparseWalkConfig{
				N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Changed: 3, Seed: 24,
			})
			ids := make([]int, n)
			dvals := make([]int64, n)
			for s := 0; s < 2000; s++ {
				c := dsrc.StepDelta(ids, dvals)
				d.ObserveDelta(ids[:c], dvals[:c])
			}
			if avg := testing.AllocsPerRun(500, func() {
				c := dsrc.StepDelta(ids, dvals)
				d.ObserveDelta(ids[:c], dvals[:c])
			}); avg != 0 {
				t.Errorf("sparse networked ObserveDelta allocates %.2f per step, want 0", avg)
			}
		})
	}
}
