package topk

import (
	"context"
	"errors"
	"testing"
)

// TestTreeConfigErrorTyped pins the full rejection table of the
// hierarchical shape: every invalid Config.Tree surfaces as a
// *ConfigError with Field "Tree", retrievable with errors.As.
func TestTreeConfigErrorTyped(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"branch-below-1", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 0, Depth: 2}}},
		{"depth-below-1", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 2, Depth: -1}}},
		{"chain-too-deep", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 1, Depth: 1 << 40}}},
		{"leaves-overflow", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 1 << 20, Depth: 2}}},
		{"leaves-exceed-nodes", Config{Nodes: 4, K: 2, Tree: Tree{Branch: 2, Depth: 3}}},
		{"tree-and-transport", Config{Nodes: 16, K: 2, Transport: Loopback(2), Tree: Tree{Branch: 2, Depth: 2}}},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: config accepted", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != "Tree" {
			t.Errorf("%s: Field = %q, want \"Tree\" (err: %v)", tc.name, ce.Field, err)
		}
	}
	// Branch 1 is a shape: one shard, alone or behind a chain of relays.
	for _, tree := range []Tree{{Branch: 1, Depth: 1}, {Branch: 1, Depth: 3}} {
		m, err := New(Config{Nodes: 16, K: 2, Tree: tree})
		if err != nil {
			t.Fatalf("%+v rejected: %v", tree, err)
		}
		m.Close()
	}
}

// TestTreeMonitorMatchesFlat drives a depth-2 tree monitor and the flat
// star with the same leaf count through the public API:
// reports and the algorithm ledger are identical, and the tree's
// diagnostic plane reports one traffic level per tree level with the
// root's overhead ledger as the last entry.
func TestTreeMonitorMatchesFlat(t *testing.T) {
	const n, k, steps = 16, 4, 200
	tree, err := New(Config{Nodes: n, K: k, Seed: 7, Epsilon: 0.05, Tree: Tree{Branch: 2, Depth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	flat, err := New(Config{Nodes: n, K: k, Seed: 7, Epsilon: 0.05, Tree: star(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = int64((s*31+i*17)%1000) * 50
		}
		a, err := tree.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flat.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: reports differ: tree=%v flat=%v", s, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: reports differ: tree=%v flat=%v", s, a, b)
			}
		}
	}
	if tree.Counts() != flat.Counts() || tree.Bytes() != flat.Bytes() {
		t.Fatalf("algorithm ledgers differ: %v/%v vs %v/%v", tree.Counts(), tree.Bytes(), flat.Counts(), flat.Bytes())
	}

	ts, err := tree.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Levels) != 2 {
		t.Fatalf("depth-2 tree reports %d traffic levels, want 2", len(ts.Levels))
	}
	overC, overB := tree.Overhead()
	root := ts.Levels[len(ts.Levels)-1]
	if root.Down != overC.Down || root.Up != overC.Up || root.DownBytes != overB.Down || root.UpBytes != overB.Up {
		t.Fatalf("root level %+v disagrees with Overhead %v/%v", root, overC, overB)
	}
	// The tentpole quantity: the root of the tree exchanges strictly
	// fewer coordination frames than the flat root serving the same
	// leaves, because its fan-in is branch instead of branch^depth.
	flatC, _ := flat.Overhead()
	if root.Down+root.Up >= flatC.Down+flatC.Up {
		t.Fatalf("tree root traffic (%d frames) not below flat root traffic (%d frames)",
			root.Down+root.Up, flatC.Down+flatC.Up)
	}

	// Non-sharded monitors report the zero value without error.
	seq, err := New(Config{Nodes: n, K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if sts, err := seq.TreeStats(); err != nil || len(sts.Levels) != 0 {
		t.Fatalf("sequential monitor TreeStats = %+v, %v; want zero value", sts, err)
	}
}

// TestTreeMonitorAsync runs a tree monitor behind the asynchronous
// ingest queue: Drain recovers synchronous semantics and the diagnostic
// poll serializes against the worker through the engine mutex.
func TestTreeMonitorAsync(t *testing.T) {
	const n, k = 16, 4
	m, err := New(Config{
		Nodes: n, K: k, Seed: 7, Epsilon: 0.1,
		Tree:   Tree{Branch: 2, Depth: 2},
		Ingest: Ingest{QueueDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	vals := make([]int64, n)
	for s := 0; s < 100; s++ {
		for i := range vals {
			vals[i] = int64((s*31+i*17)%1000) * 50
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		if s%25 == 24 {
			if err := m.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := m.TreeStats(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
