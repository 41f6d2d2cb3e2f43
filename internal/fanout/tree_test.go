package fanout

import (
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/stream"
)

// TestLoopbackStarRedials pins the failover default the star shares with
// every loopback tree: where a star over bare links merges a dead leaf's
// range into a survivor (shardrun's TestDeadShardRecovers), NewLoopbackTree's
// star redials a fresh loopback leaf that adopts the exact range, and
// reports track the oracle throughout.
func TestLoopbackStarRedials(t *testing.T) {
	const n, k = 12, 3
	cfg := Config{N: n, K: k, Seed: 7}
	links, err := loopbackTree(&cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 400, Seed: 9})
	vals := make([]int64, n)
	var ranges [][2]int
	for s := 0; s < 30; s++ {
		if s == 10 {
			for _, p := range sh.Health().Peers {
				ranges = append(ranges, [2]int{p.Lo, p.Hi})
			}
			links[1].Close()
		}
		src.Step(vals)
		got := sh.Observe(vals)
		if h := sh.Health(); !h.Degraded && !slices.Equal(got, order.Oracle(vals, k)) {
			t.Fatalf("step %d: got %v, want oracle %v", s, got, order.Oracle(vals, k))
		}
	}
	h := sh.Health()
	if h.Terminal != nil || h.Failures != 1 || h.Recoveries != 1 || len(h.Peers) != len(ranges) {
		t.Fatalf("health after one dead shard: %+v", h)
	}
	for i, p := range h.Peers {
		if [2]int{p.Lo, p.Hi} != ranges[i] {
			t.Fatalf("peer %d owns [%d, %d) after the redial, want %v", i, p.Lo, p.Hi, ranges[i])
		}
	}
}
