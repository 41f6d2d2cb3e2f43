package topk

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The flat star of S shards is the depth-1 tree Tree{S, 1}. Before the
// star lost its own field (Config.Shards) its runs were recorded in
// testdata/star.golden, one line per shard count, tolerance and feed: the
// hash of every report, the ledgers by phase, the stats, the overhead
// ledger and the transport counters. Lines starting with '#' are comments.
const (
	starNodes, starK, starSeed, starSteps = 28, 4, 13, 500
)

// starConfig is the monitor of one recorded line: the star of s shards.
func starConfig(s int, eps float64) Config {
	return Config{Nodes: starNodes, K: starK, Seed: starSeed, Epsilon: eps, Tree: star(s)}
}

// burst moves the values of step s: every node drifts a little, and every
// 25th step a third of the nodes jump to fresh values.
func burst(r *rng.RNG, s int, vals []int64) {
	for i := range vals {
		vals[i] += int64(r.Intn(9)) - 4
	}
	if s%25 == 0 {
		for range len(vals) / 3 {
			vals[r.Intn(len(vals))] = int64(r.Intn(1 << 16))
		}
	}
}

// starRun feeds m the bursty trace — dense, or as the changed ids when
// delta is set — and returns what bit-identical engines share: the hash of
// every report, the ledgers by phase and the stats.
func starRun(t *testing.T, m *Monitor, delta bool) string {
	t.Helper()
	r := rng.New(starSeed, 3)
	h := fnv.New64a()
	vals, prev := make([]int64, m.cfg.Nodes), make([]int64, m.cfg.Nodes)
	var ids []int
	var moved []int64
	for s := 0; s < starSteps; s++ {
		burst(r, s, vals)
		var top []int
		var err error
		if delta {
			ids, moved = ids[:0], moved[:0]
			for id, v := range vals {
				if v != prev[id] {
					ids, moved = append(ids, id), append(moved, v)
				}
			}
			copy(prev, vals)
			top, err = m.ObserveDelta(ids, moved)
		} else {
			top, err = m.Observe(vals)
		}
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		fmt.Fprintln(h, top)
	}
	return fmt.Sprintf("reports=%016x phases=%+v bytes=%+v stats=%+v", h.Sum64(), m.Phases(), m.BytesByPhase(), m.Stats())
}

// starLines renders one line per recorded star run.
func starLines(t *testing.T) string {
	var b strings.Builder
	for _, s := range []int{1, 2, 4, 7} {
		for _, eps := range []float64{0, 0.05} {
			for _, feed := range []string{"dense", "delta"} {
				m, err := New(starConfig(s, eps))
				if err != nil {
					t.Fatal(err)
				}
				run := starRun(t, m, feed == "delta")
				oc, ob := m.Overhead()
				fmt.Fprintf(&b, "S=%d eps=%g %s %s overhead=%+v/%+v transport=%+v\n", s, eps, feed, run, oc, ob, m.TransportStats())
				m.Close()
			}
		}
	}
	return b.String()
}

// TestStarIsDepthOneTree holds Tree{S, 1} to every line recorded from the
// star, and every recorded star, a single leaf behind two relays —
// Tree{1, 3} — and the trees Tree{2, 2} and Tree{2, 3} to the sequential
// engine: reports, ledgers, bytes and stats.
func TestStarIsDepthOneTree(t *testing.T) {
	raw, err := os.ReadFile("testdata/star.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := strings.Split(strings.TrimSuffix(starLines(t), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d left the recorded star:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	for _, eps := range []float64{0, 0.05} {
		for _, delta := range []bool{false, true} {
			cfg := Config{Nodes: starNodes, K: starK, Seed: starSeed, Epsilon: eps}
			seq, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := starRun(t, seq, delta)
			feed := "dense"
			if delta {
				feed = "delta"
			}
			for _, line := range got {
				if strings.Contains(line, fmt.Sprintf(" eps=%g %s ", eps, feed)) && !strings.Contains(line, " "+a+" ") {
					t.Errorf("eps=%g %s: a recorded star left the sequential engine:\n got %s\nwant %s", eps, feed, line, a)
				}
			}
			for _, tree := range []Tree{{Branch: 1, Depth: 3}, {Branch: 2, Depth: 2}, {Branch: 2, Depth: 3}} {
				cfg.Tree = tree
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if b := starRun(t, m, delta); a != b {
					t.Errorf("eps=%g %s: %+v left the sequential engine:\n got %s\nwant %s", eps, feed, tree, b, a)
				}
				m.Close()
			}
		}
	}
}
