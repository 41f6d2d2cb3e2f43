package topk

import (
	"errors"
	"slices"
	"testing"
)

// star is the flat star of s shards: the depth-1 tree.
func star(s int) Tree { return Tree{Branch: s, Depth: 1} }

// TestShardedMonitorMatchesSequential drives the public star of shards
// against the sequential engine: identical reports at every step and a
// bit-identical ledger — counts, bytes, phases, stats — for every shard
// count.
func TestShardedMonitorMatchesSequential(t *testing.T) {
	const nodes, k, seed, steps = 24, 5, 99, 200
	for _, shards := range []int{1, 2, 4} {
		seq, err := New(Config{Nodes: nodes, K: k, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := New(Config{Nodes: nodes, K: k, Seed: seed, Tree: star(shards)})
		if err != nil {
			t.Fatal(err)
		}

		vals := make([]int64, nodes)
		for s := 0; s < steps; s++ {
			for i := range vals {
				vals[i] = int64((s*37+i*i*11)%5000 - 2500)
			}
			a, errA := seq.Observe(vals)
			b, errB := sh.Observe(vals)
			if errA != nil || errB != nil {
				t.Fatalf("step %d: observe errors: %v / %v", s, errA, errB)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("shards=%d step %d: reports differ: seq=%v sharded=%v", shards, s, a, b)
			}
		}
		if seq.Counts() != sh.Counts() {
			t.Fatalf("S=%d counts differ: %+v vs %+v", shards, seq.Counts(), sh.Counts())
		}
		if seq.Bytes() != sh.Bytes() {
			t.Fatalf("S=%d bytes differ: %+v vs %+v", shards, seq.Bytes(), sh.Bytes())
		}
		if seq.Phases() != sh.Phases() {
			t.Fatalf("S=%d phases differ", shards)
		}
		if seq.Stats() != sh.Stats() {
			t.Fatalf("S=%d stats differ: %+v vs %+v", shards, seq.Stats(), sh.Stats())
		}
		oc, ob := sh.Overhead()
		if oc.Total() == 0 || ob.Total() == 0 {
			t.Fatalf("shards=%d: overhead ledger empty", shards)
		}
		if ts := sh.TransportStats(); ts.SentFrames == 0 {
			t.Fatalf("shards=%d: transport stats empty", shards)
		}
		sh.Close()
	}
}

// TestShardConfigValidation pins the guard rails of the star: more shards
// than nodes, no shard at all, and a star beside a Transport are refused as
// Config.Tree.
func TestShardConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 4, K: 2, Tree: star(5)},
		{Nodes: 4, K: 2, Tree: star(-1)},
		{Nodes: 4, K: 2, Tree: star(2), Transport: Loopback(2)},
	} {
		ce := new(ConfigError)
		if _, err := New(cfg); !errors.As(err, &ce) || ce.Field != "Tree" {
			t.Errorf("%+v: %v, want a ConfigError naming Tree", cfg.Tree, err)
		}
	}
}

// TestShardedAppendTopIsACopy is the public-API aliasing regression:
// scribbling over AppendTop results must never corrupt later reports.
func TestShardedAppendTopIsACopy(t *testing.T) {
	const nodes, k, seed = 12, 3, 7
	seq, err := New(Config{Nodes: nodes, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(Config{Nodes: nodes, K: k, Seed: seed, Tree: star(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	vals := make([]int64, nodes)
	var copies [][]int
	for s := 0; s < 80; s++ {
		for i := range vals {
			vals[i] = int64((s*41+i*13)%3000) - 1500
		}
		a, _ := seq.Observe(vals)
		b, _ := sh.Observe(vals)
		if !slices.Equal(a, b) {
			t.Fatalf("step %d: reports diverged after mutations: %v vs %v", s, a, b)
		}
		copies = append(copies, sh.AppendTop(nil), seq.AppendTop(nil))
		for _, c := range copies {
			for i := range c {
				c[i] = -9
			}
		}
	}
}
