package topk

import (
	"slices"
	"testing"

	"repro/internal/stream"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, K: 1},
		{Nodes: 5, K: 0},
		{Nodes: 5, K: 6},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := New(Config{Nodes: 5, K: 5}); err != nil {
		t.Fatalf("K == Nodes should be accepted: %v", err)
	}
}

func TestMonitorBasicFlow(t *testing.T) {
	m, err := New(Config{Nodes: 4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	top, err := m.Observe([]int64{10, 40, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("top: %v", top)
	}
	if got := m.Top(); len(got) != 2 || got[0] != 1 {
		t.Fatalf("Top(): %v", got)
	}
	if m.Counts().Total() == 0 {
		t.Fatal("initialization should cost messages")
	}
	if m.Stats().Steps != 1 || m.Stats().Resets != 1 {
		t.Fatalf("stats: %+v", m.Stats())
	}
}

func TestMonitorObserveErrors(t *testing.T) {
	m, _ := New(Config{Nodes: 3, K: 1})
	if _, err := m.Observe([]int64{1, 2}); err == nil {
		t.Fatal("wrong length should error")
	}
	m.Close()
	if _, err := m.Observe([]int64{1, 2, 3}); err == nil {
		t.Fatal("closed monitor should error")
	}
}

func TestMonitorTopBeforeObserve(t *testing.T) {
	m, _ := New(Config{Nodes: 3, K: 2})
	if got := m.Top(); len(got) != 0 {
		t.Fatalf("pre-observe top should be empty: %v", got)
	}
}

func TestBothEnginesAgree(t *testing.T) {
	seqM, err := New(Config{Nodes: 10, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	conM, err := New(Config{Nodes: 10, K: 3, Seed: 7, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conM.Close()
	mkSrc := func() stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: 10, Lo: 0, Hi: 100000, MaxStep: 500, Seed: 8})
	}
	a, b := mkSrc(), mkSrc()
	va, vb := make([]int64, 10), make([]int64, 10)
	for s := 0; s < 150; s++ {
		a.Step(va)
		b.Step(vb)
		ta, err1 := seqM.Observe(va)
		tb, err2 := conM.Observe(vb)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("engines disagree at step %d: %v vs %v", s, ta, tb)
			}
		}
		if seqM.Counts() != conM.Counts() {
			t.Fatalf("counts disagree at step %d", s)
		}
	}
}

func TestMonitorExactOverWorkload(t *testing.T) {
	m, _ := New(Config{Nodes: 12, K: 4, Seed: 9})
	src := stream.NewBursty(stream.BurstyConfig{N: 12, Seed: 10, Lo: 0, Hi: 1 << 20, Noise: 4, BurstProb: 0.05, BurstMax: 1 << 16})
	vals := make([]int64, 12)
	var prev []int
	changes := int64(0) // oracle set changes, the first report included
	for s := 0; s < 300; s++ {
		src.Step(vals)
		got, err := m.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Oracle(vals, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: got %v want %v", s, got, want)
			}
		}
		if !slices.Equal(prev, want) {
			changes++
		}
		prev = want
	}
	if st := m.Stats(); st.TopChanges != changes {
		t.Fatalf("Stats().TopChanges = %d, the oracle's set changed %d times", st.TopChanges, changes)
	}
}

func TestPhasesSumToTotal(t *testing.T) {
	m, _ := New(Config{Nodes: 8, K: 2, Seed: 11})
	src := stream.NewIID(stream.IIDConfig{N: 8, Seed: 12, Dist: stream.Uniform, Lo: 0, Hi: 1 << 18})
	vals := make([]int64, 8)
	for s := 0; s < 100; s++ {
		src.Step(vals)
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Phases()
	sum := p.Violation.Total() + p.Handler.Total() + p.Reset.Total()
	if sum != m.Counts().Total() {
		t.Fatalf("phase sum %d != total %d", sum, m.Counts().Total())
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, _ := New(Config{Nodes: 3, K: 1, Concurrent: true})
	m.Close()
	m.Close()
	m2, _ := New(Config{Nodes: 3, K: 1})
	m2.Close()
	m2.Close()
}

func TestOracle(t *testing.T) {
	got, err := Oracle([]int64{5, 9, 1, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 9 at nodes 1 and 3; both in top-2.
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("oracle: %v", got)
	}
	if _, err := Oracle(nil, 1); err == nil {
		t.Fatal("empty vector should error")
	}
	if _, err := Oracle([]int64{1}, 2); err == nil {
		t.Fatal("k > n should error")
	}
}
