package netrun

import (
	"testing"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/stream"
)

// TestNetworkedObserveZeroAllocs extends the hot-path allocation
// regression (internal/core's TestObserveZeroAllocs) across the wire: a
// violation-free networked step — engine encode into the buffer its link
// lends, pooled pipe frames or a TCP link's write and read buffers, host
// decode, node bank, reply encode, gather — must not allocate at all once
// every buffer has warmed up, over pipes and over TCP, under either gather,
// with values in int32 and with values from 2⁴⁰ in 6-byte cells.
// This is what keeps a large, mostly-idle deployment free of GC pressure.
func TestNetworkedObserveZeroAllocs(t *testing.T) {
	fanouttest.EachGather(t, func(t *testing.T) {
		const n, peers = 256, 4
		for _, over := range []struct {
			name  string
			build func(t *testing.T, cfg fanout.Config) *fanout.Engine
		}{
			{"pipe", func(t *testing.T, cfg fanout.Config) *fanout.Engine {
				e := hosts.MustLoopback(t, cfg, peers)
				t.Cleanup(e.Close)
				return e
			}},
			{"tcp", func(t *testing.T, cfg fanout.Config) *fanout.Engine {
				links, served := fanouttest.TCPLinks(t, peers, Serve)
				e, err := fanout.New(cfg, links)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { e.Close(); served() })
				return e
			}},
		} {
			t.Run(over.name, func(t *testing.T) {
				// Values in int32, and from 2⁴⁰, where the root's mirror and
				// the hosts' banks keep 6-byte cells.
				for _, c := range []struct {
					base int64
					tier coord.Tier
				}{{0, coord.Tier32}, {1 << 40, coord.Tier48}} {
					// Dense steps on a calm walk: mostly violation-free, with
					// the occasional violation and reset to warm those buffers
					// too.
					e := over.build(t, fanout.Config{N: n, K: 4, Seed: 21})
					src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: c.base, Hi: c.base + 1<<24, MaxStep: 8, Seed: 22})
					vals := make([]int64, n)
					for s := 0; s < 2000; s++ {
						src.Step(vals)
						e.Observe(vals)
					}
					if avg := testing.AllocsPerRun(500, func() {
						src.Step(vals)
						e.Observe(vals)
					}); avg != 0 {
						t.Errorf("base %d: dense networked Observe allocates %.2f per step, want 0", c.base, avg)
					}
					if got := e.MirrorTier(); got != c.tier {
						t.Errorf("base %d: the mirror is %d bytes a node, want %d", c.base, got, c.tier)
					}

					// The sparse path over a delta-native workload must be
					// clean as well.
					d := over.build(t, fanout.Config{N: n, K: 4, Seed: 23})
					dsrc := stream.NewSparseWalk(stream.SparseWalkConfig{
						N: n, Lo: c.base, Hi: c.base + 1<<24, MaxStep: 8, Changed: 3, Seed: 24,
					})
					ids := make([]int, n)
					dvals := make([]int64, n)
					for s := 0; s < 2000; s++ {
						k := dsrc.StepDelta(ids, dvals)
						d.ObserveDelta(ids[:k], dvals[:k])
					}
					if avg := testing.AllocsPerRun(500, func() {
						k := dsrc.StepDelta(ids, dvals)
						d.ObserveDelta(ids[:k], dvals[:k])
					}); avg != 0 {
						t.Errorf("base %d: sparse networked ObserveDelta allocates %.2f per step, want 0", c.base, avg)
					}
				}
			})
		}
	})
}

// TestUnequalRangesObserveZeroAllocs extends the pin above
// transport.Retention's 2 KiB floor, to peers of unequal ranges: once a
// failover has merged a dead peer's range into the one below it, a step's
// frames are n/2, n/4 and n/4 one-byte changes, and the encode buffer the
// first needs must outlive the smaller frames written into it after it,
// under either gather.
func TestUnequalRangesObserveZeroAllocs(t *testing.T) {
	fanouttest.EachGather(t, func(t *testing.T) {
		const n = 1 << 18
		links := fanout.Loopbacks(4, Serve)
		e, err := fanout.New(fanout.Config{N: n, K: 4, Seed: 31}, links)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Seed: 32})
		vals := make([]int64, n)
		step := func() {
			src.Step(vals)
			e.Observe(vals)
		}
		step()
		links[1].Close()
		for s := 0; s < 8; s++ {
			step()
		}
		var widths []int
		for _, p := range e.Health().Peers {
			widths = append(widths, p.Hi-p.Lo)
		}
		if len(widths) != 3 || widths[0] != n/2 || widths[1] != n/4 || widths[2] != n/4 {
			t.Fatalf("peer ranges after the merge are %v nodes wide, want [%d %d %d]", widths, n/2, n/4, n/4)
		}
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("dense networked Observe over unequal ranges allocates %.2f per step, want 0", avg)
		}
	})
}
