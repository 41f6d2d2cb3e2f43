package shardrun

import (
	"context"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
)

// mustTree builds a loopback tree engine, failing the test on
// constructor errors.
func mustTree(tb testing.TB, cfg Config, branch, depth int) *Engine {
	tb.Helper()
	e, err := NewLoopbackTree(cfg, branch, depth)
	if err != nil {
		tb.Fatalf("NewLoopbackTree: %v", err)
	}
	return e
}

// TestTreeDepthOneBitIdentical anchors the tree against the flat engine:
// a depth-1 tree is the flat star by construction — no interiors — so
// reports, both ledgers, the per-phase breakdowns and the behavioural
// stats must equal a flat Shards=branch engine's bit for bit, under both
// gathers.
func TestTreeDepthOneBitIdentical(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, k, seed, steps = 13, 4, 41, 250
			cfg := Config{N: n, K: k, Seed: seed, Epsilon: 0.05}
			flat := mustLoopback(t, cfg, 3)
			defer flat.Close()
			tree := mustTree(t, cfg, 3, 1)
			defer tree.Close()

			srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
			srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
			va, vb := make([]int64, n), make([]int64, n)
			for s := 0; s < steps; s++ {
				srcA.Step(va)
				srcB.Step(vb)
				if !equal(flat.Observe(va), tree.Observe(vb)) {
					t.Fatalf("step %d: reports differ", s)
				}
			}
			if flat.Counts() != tree.Counts() || flat.Bytes() != tree.Bytes() {
				t.Fatalf("algorithm ledgers differ: %v/%v vs %v/%v", flat.Counts(), flat.Bytes(), tree.Counts(), tree.Bytes())
			}
			if flat.Overhead() != tree.Overhead() || flat.OverheadBytes() != tree.OverheadBytes() {
				t.Fatalf("overhead ledgers differ: %v/%v vs %v/%v", flat.Overhead(), flat.OverheadBytes(), tree.Overhead(), tree.OverheadBytes())
			}
			for _, ph := range comm.Phases() {
				if flat.Ledger().PhaseCounts(ph) != tree.Ledger().PhaseCounts(ph) {
					t.Fatalf("phase %v counts differ", ph)
				}
				if flat.Ledger().PhaseBytes(ph) != tree.Ledger().PhaseBytes(ph) {
					t.Fatalf("phase %v bytes differ", ph)
				}
			}
			if flat.Stats() != tree.Stats() {
				t.Fatalf("stats differ: %+v vs %+v", flat.Stats(), tree.Stats())
			}
		})
	}
}

// treeShapes is the equivalence matrix: every tree shape paired with the
// flat engine serving the same leaf count, with N chosen divisible so
// the composed base/rem splits produce identical leaf ranges.
var treeShapes = []struct {
	name          string
	n, k          int
	branch, depth int
	flat          int
}{
	{"2^2", 16, 4, 2, 2, 4},
	{"3^2", 18, 5, 3, 2, 9},
	{"2^3", 16, 3, 2, 3, 8},
}

// TestTreeFlatEquivalence is the tentpole invariant: a depth-d tree is
// externally indistinguishable from the flat engine over the same leaf
// partition. Reports match at every step (dense and sparse ingestion
// interleaved), the reported set is ε-valid at every step, and the
// algorithm ledger — counts, bytes, per-phase — matches exactly, while
// the root's own fan-in stays at branch links.
func TestTreeFlatEquivalence(t *testing.T) {
	for _, g := range gathers {
		for _, eps := range []float64{0, 0.05} {
			for _, tc := range treeShapes {
				name := g.name + "/" + tc.name
				if eps > 0 {
					name += "/eps"
				}
				t.Run(name, func(t *testing.T) {
					setGather(t, g.procs)
					const seed, steps = 41, 300
					cfg := Config{N: tc.n, K: tc.k, Seed: seed, Epsilon: eps}
					flat := mustLoopback(t, cfg, tc.flat)
					defer flat.Close()
					tree := mustTree(t, cfg, tc.branch, tc.depth)
					defer tree.Close()
					if got := tree.Shards(); got != tc.branch {
						t.Fatalf("root fan-in is %d links, want exactly branch=%d", got, tc.branch)
					}
					if got := tree.Leaves(); got != tc.flat {
						t.Fatalf("tree serves %d leaves, want %d", got, tc.flat)
					}

					srcA := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5})
					srcB := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5})
					va, vb := make([]int64, tc.n), make([]int64, tc.n)
					prev := make([]int64, tc.n)
					ids := make([]int, 0, tc.n)
					dv := make([]int64, 0, tc.n)
					for s := 0; s < steps; s++ {
						srcA.Step(va)
						srcB.Step(vb)
						var topFlat, topTree []int
						if s%2 == 0 {
							topFlat = flat.Observe(va)
							topTree = tree.Observe(vb)
						} else {
							// Sparse ingestion: ship only the changed ids, on
							// both engines, interleaved with the dense path.
							ids, dv = ids[:0], dv[:0]
							for i, v := range vb {
								if v != prev[i] {
									ids = append(ids, i)
									dv = append(dv, v)
								}
							}
							topFlat = flat.ObserveDelta(ids, dv)
							topTree = tree.ObserveDelta(ids, dv)
						}
						copy(prev, vb)
						if !equal(topFlat, topTree) {
							t.Fatalf("step %d: reports differ: flat=%v tree=%v", s, topFlat, topTree)
						}
						if !sim.EpsValid(vb, topTree, tc.k, eps) {
							t.Fatalf("step %d: tree report %v not ε-valid at eps=%v", s, topTree, eps)
						}
						if cf, ct := flat.Counts(), tree.Counts(); cf != ct {
							t.Fatalf("step %d: counts differ: flat=%v tree=%v", s, cf, ct)
						}
						if bf, bt := flat.Bytes(), tree.Bytes(); bf != bt {
							t.Fatalf("step %d: bytes differ: flat=%v tree=%v", s, bf, bt)
						}
					}
					for _, ph := range comm.Phases() {
						if flat.Ledger().PhaseCounts(ph) != tree.Ledger().PhaseCounts(ph) {
							t.Fatalf("phase %v counts differ", ph)
						}
						if flat.Ledger().PhaseBytes(ph) != tree.Ledger().PhaseBytes(ph) {
							t.Fatalf("phase %v bytes differ", ph)
						}
					}
					if flat.Stats() != tree.Stats() {
						t.Fatalf("stats differ: flat=%+v tree=%+v", flat.Stats(), tree.Stats())
					}
					if tree.Err() != nil {
						t.Fatalf("tree engine error: %v", tree.Err())
					}
				})
			}
		}
	}
}

// TestTreeExactInSim runs the deepest shape under the sim harness with
// the oracle checked every step: report-exactness holds at any tree
// shape, and the top-change trajectory equals the sequential engine's.
func TestTreeExactInSim(t *testing.T) {
	const n, k, seed, steps = 16, 4, 31, 400
	cfg := sim.Config{Steps: steps, K: k, CheckEvery: 1}
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	seqRep := sim.Run(seq, stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5}), cfg)

	tree := mustTree(t, Config{N: n, K: k, Seed: seed}, 2, 3)
	treeRep := sim.Run(tree, stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: 700, Seed: 5}), cfg)
	tree.Close()
	if treeRep.Errors != 0 {
		t.Fatalf("depth-3 tree: %d oracle mismatches", treeRep.Errors)
	}
	if treeRep.TopChanges != seqRep.TopChanges {
		t.Fatalf("top-change trajectories differ: %d vs %d", treeRep.TopChanges, seqRep.TopChanges)
	}
}

// TestTCPTree runs a depth-2 tree with the root↔interior hop over real
// localhost TCP — interiors dial in, each relaying to its leaf subtrees
// over in-process pipes — under both gathers and with a live ε, so the
// relayed frames cross a real network boundary.
func TestTCPTree(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, k, seed, steps, branch = 12, 3, 17, 120, 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ln, err := transport.Listen(ctx, "127.0.0.1:0")
			if err != nil {
				t.Skipf("cannot listen on loopback: %v", err)
			}
			defer ln.Close()

			serveErr := make(chan error, branch)
			for i := 0; i < branch; i++ {
				go func() {
					link, err := transport.Dial(ctx, ln.Addr())
					if err != nil {
						serveErr <- err
						return
					}
					children := make([]transport.Link, branch)
					for j := range children {
						children[j] = LoopbackSubtree(branch, 1)
					}
					serveErr <- ServeInterior(link, children)
				}()
			}
			links, err := ln.AcceptN(branch)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := New(Config{
				N: n, K: k, Seed: seed, Epsilon: 0.05,
				Tree: Tree{Branch: branch, Depth: 2},
			}, links)
			if err != nil {
				t.Fatal(err)
			}

			flat := mustLoopback(t, Config{N: n, K: k, Seed: seed, Epsilon: 0.05}, branch*branch)
			defer flat.Close()
			srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 300, Seed: 23})
			srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 300, Seed: 23})
			va, vb := make([]int64, n), make([]int64, n)
			for s := 0; s < steps; s++ {
				srcA.Step(va)
				srcB.Step(vb)
				if !equal(flat.Observe(va), tree.Observe(vb)) {
					t.Fatalf("step %d: reports differ over TCP", s)
				}
			}
			if cf, ct := flat.Counts(), tree.Counts(); cf != ct {
				t.Fatalf("counts differ over TCP: flat=%v tree=%v", cf, ct)
			}
			if ts := tree.TransportStats(); ts.SentBytes == 0 || ts.RecvBytes == 0 {
				t.Fatalf("no TCP traffic recorded: %+v", ts)
			}
			tree.Close()
			for i := 0; i < branch; i++ {
				if err := <-serveErr; err != nil {
					t.Fatalf("interior serve loop: %v", err)
				}
			}
		})
	}
}

// TestTreeStatsProfile pins the diagnostic plane: a depth-2 tree reports
// one LevelIO per tree level with the root's overhead ledger last, and
// the poll itself is free — it must not move the overhead ledger it
// reports.
func TestTreeStatsProfile(t *testing.T) {
	const n, k, seed, steps, branch, depth = 16, 4, 7, 400, 2, 2
	tree := mustTree(t, Config{N: n, K: k, Seed: seed, Epsilon: 0.2}, branch, depth)
	defer tree.Close()

	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 900, Seed: 9})
	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		src.Step(vals)
		tree.Observe(vals)
	}
	over, overB := tree.Overhead(), tree.OverheadBytes()
	ts, err := tree.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Levels) != depth {
		t.Fatalf("got %d traffic levels, want %d (interiors + root)", len(ts.Levels), depth)
	}
	root := ts.Levels[len(ts.Levels)-1]
	if root.Down != over.Down || root.Up != over.Up || root.DownBytes != overB.Down || root.UpBytes != overB.Up {
		t.Fatalf("root level %+v disagrees with overhead ledger %v/%v", root, over, overB)
	}
	if ts.Levels[0].Down <= root.Down {
		t.Fatalf("leaf-facing level (%d frames) should carry more frames than the root's %d links (%d frames)", ts.Levels[0].Down, branch, root.Down)
	}
	if tree.Overhead() != over || tree.OverheadBytes() != overB {
		t.Fatal("stats poll perturbed the overhead ledger")
	}
	// Polls are cumulative reads, not resets.
	ts2, err := tree.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ts2.Levels, ts.Levels) {
		t.Fatalf("second poll disagrees: %v vs %v", ts2.Levels, ts.Levels)
	}

	// A flat engine degenerates to the root's ledger as the single
	// traffic level.
	flat := mustLoopback(t, Config{N: n, K: k, Seed: seed, Epsilon: 0.2}, 4)
	defer flat.Close()
	fts, err := flat.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(fts.Levels) != 1 {
		t.Fatalf("flat engine stats: %+v, want exactly the root level", fts)
	}
}

// TestTreeConfigRejected pins the constructor contract for bad shapes:
// branch below 2, non-positive depth, a link count that disagrees with
// the branch, and more leaves than nodes are all rejected with every
// link closed.
func TestTreeConfigRejected(t *testing.T) {
	bad := []Config{
		{N: 16, K: 4, Tree: Tree{Branch: 1, Depth: 2}},
		{N: 16, K: 4, Tree: Tree{Branch: 2, Depth: 0}},
		{N: 4, K: 2, Tree: Tree{Branch: 2, Depth: 3}}, // 8 leaves > 4 nodes
	}
	for i, cfg := range bad {
		if _, err := New(cfg, LoopbackLinks(2)); err == nil {
			t.Fatalf("case %d: bad tree %+v accepted", i, cfg.Tree)
		}
	}
	// Link count must equal the branch.
	if _, err := New(Config{N: 16, K: 4, Tree: Tree{Branch: 2, Depth: 2}}, LoopbackLinks(3)); err == nil {
		t.Fatal("3 links accepted for branch 2")
	}
}
