package fanout_test

import (
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/netrun"
	"repro/internal/shardrun"
	"repro/internal/stream"
	"repro/internal/transport"
)

// TestSplit pins the one range layout of the system: contiguous,
// covering, near-even, the first (hi-lo) mod parts ranges one node wider.
func TestSplit(t *testing.T) {
	for _, tc := range []struct{ lo, hi, parts int }{{0, 12, 3}, {0, 13, 4}, {5, 12, 7}, {3, 20, 1}, {0, 4096, 16}} {
		next := tc.lo
		base := (tc.hi - tc.lo) / tc.parts
		for i := 0; i < tc.parts; i++ {
			lo, hi := fanout.Split(tc.lo, tc.hi, tc.parts, i)
			want := base
			if i < (tc.hi-tc.lo)%tc.parts {
				want++
			}
			if lo != next || hi-lo != want {
				t.Fatalf("Split(%d, %d, %d, %d) = [%d, %d), want [%d, %d)", tc.lo, tc.hi, tc.parts, i, lo, hi, next, next+want)
			}
			next = hi
		}
		if next != tc.hi {
			t.Fatalf("Split(%d, %d, %d, ·) covers up to %d", tc.lo, tc.hi, tc.parts, next)
		}
	}
}

// linkEngine is the surface both instantiations of the core share.
type linkEngine interface {
	Observe(vals []int64) []int
	TransportStats() transport.LinkStats
	Health() coord.Health
	Err() error
	Close()
}

// TestDeadLinkKeepsTransportStats pins that recovery retires a dead
// link's traffic instead of forgetting it: TransportStats must be
// monotone through a peer's death and its merge or redial, on both exec
// strategies. (Summing only the current links made the dead peer's frames
// vanish — SentFrames 11552 → 8785 in the issue's scenario.)
func TestDeadLinkKeepsTransportStats(t *testing.T) {
	const n, k, seed, peers = 24, 3, 7, 4
	strategies := []struct {
		name  string
		links func(int) []transport.Link
		link  func() transport.Link
		build func(redial func() (transport.Link, error), links []transport.Link) (linkEngine, error)
	}{
		{"rounds", netrun.LoopbackLinks, netrun.LoopbackLink,
			func(redial func() (transport.Link, error), links []transport.Link) (linkEngine, error) {
				return netrun.New(netrun.Config{N: n, K: k, Seed: seed, Redial: redial, RetryBackoff: time.Millisecond}, links)
			}},
		{"delegated", shardrun.LoopbackLinks, shardrun.LoopbackLink,
			func(redial func() (transport.Link, error), links []transport.Link) (linkEngine, error) {
				return shardrun.New(shardrun.Config{N: n, K: k, Seed: seed, Redial: redial, RetryBackoff: time.Millisecond}, links)
			}},
	}
	for _, st := range strategies {
		for _, variant := range []string{"merge", "redial"} {
			t.Run(st.name+"/"+variant, func(t *testing.T) {
				var redial func() (transport.Link, error)
				if variant == "redial" {
					redial = func() (transport.Link, error) { return st.link(), nil }
				}
				links := st.links(peers)
				e, err := st.build(redial, links)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 3, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				prev := e.TransportStats()
				step := func(s int) {
					src.Step(vals)
					e.Observe(vals)
					cur := e.TransportStats()
					if cur.SentFrames < prev.SentFrames || cur.SentBytes < prev.SentBytes ||
						cur.RecvFrames < prev.RecvFrames || cur.RecvBytes < prev.RecvBytes {
						t.Fatalf("step %d: TransportStats went backwards: %+v -> %+v", s, prev, cur)
					}
					prev = cur
				}
				for s := 0; s < 200; s++ {
					step(s)
				}
				links[1].Close()
				for s := 200; s < 210; s++ {
					step(s)
				}
				if e.Err() != nil {
					t.Fatalf("recovery went terminal: %v", e.Err())
				}
				if h := e.Health(); h.Recoveries == 0 || h.Degraded {
					t.Fatalf("the dead link was never recovered from: %+v", h)
				}
			})
		}
	}
}
