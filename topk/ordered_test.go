package topk

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

func TestNewOrderedValidation(t *testing.T) {
	if _, err := NewOrdered(Config{Nodes: 0, K: 1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewOrdered(Config{Nodes: 3, K: 4}); err == nil {
		t.Fatal("expected error")
	}
	m, err := NewOrdered(Config{Nodes: 3, K: 1, Concurrent: true})
	if err != nil {
		t.Fatalf("concurrent ordered should be supported: %v", err)
	}
	m.Close()
	m.Close() // idempotent
}

func TestOrderedEnginesAgree(t *testing.T) {
	seq, err := NewOrdered(Config{Nodes: 8, K: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewOrdered(Config{Nodes: 8, K: 3, Seed: 41, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	mk := func() stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: 8, Lo: 0, Hi: 100000, MaxStep: 800, Seed: 42})
	}
	a, b := mk(), mk()
	va, vb := make([]int64, 8), make([]int64, 8)
	for s := 0; s < 150; s++ {
		a.Step(va)
		b.Step(vb)
		ta, err1 := seq.Observe(va)
		tb, err2 := conc.Observe(vb)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("step %d: rankings differ: %v vs %v", s, ta, tb)
			}
		}
		if seq.Counts() != conc.Counts() {
			t.Fatalf("step %d: counts differ", s)
		}
		if ba, bb := seq.Bytes(), conc.Bytes(); ba != bb || ba.Total() == 0 || seq.BytesByPhase() != conc.BytesByPhase() {
			t.Fatalf("step %d: bytes differ or empty: seq=%+v conc=%+v", s, ba, bb)
		}
		if sa, sb := seq.Stats(), conc.Stats(); sa != sb || sa.Steps != int64(s+1) {
			t.Fatalf("step %d: stats differ: seq=%+v conc=%+v", s, sa, sb)
		}
	}
}

func TestOrderedMonitorExactRanks(t *testing.T) {
	m, err := NewOrdered(Config{Nodes: 10, K: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewRandomWalk(stream.WalkConfig{N: 10, Lo: 0, Hi: 100000, MaxStep: 700, Seed: 22})
	vals := make([]int64, 10)
	for s := 0; s < 300; s++ {
		src.Step(vals)
		got, err := m.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.RankOracle(vals, 4)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: rank %d is node %d, want %d", s, i+1, got[i], want[i])
			}
		}
	}
	if m.Counts().Total() == 0 {
		t.Fatal("no messages counted")
	}
	if m.Stats().Steps != 300 {
		t.Fatalf("stats: %+v", m.Stats())
	}
}

func TestOrderedMonitorErrors(t *testing.T) {
	m, _ := NewOrdered(Config{Nodes: 3, K: 2})
	if _, err := m.Observe([]int64{1, 2}); err == nil {
		t.Fatal("wrong length should error")
	}
}

func TestOrderedTopAndPhases(t *testing.T) {
	m, _ := NewOrdered(Config{Nodes: 5, K: 3, Seed: 23})
	if len(m.Top()) != 0 {
		t.Fatal("pre-observe Top should be empty")
	}
	if _, err := m.Observe([]int64{10, 50, 30, 20, 40}); err != nil {
		t.Fatal(err)
	}
	top := m.Top()
	if len(top) != 3 || top[0] != 1 || top[1] != 4 || top[2] != 2 {
		t.Fatalf("rank order: %v", top)
	}
	p := m.Phases()
	if p.Violation.Total()+p.Handler.Total()+p.Reset.Total() != m.Counts().Total() {
		t.Fatal("phase sum mismatch")
	}
	pb := m.BytesByPhase()
	if pb.Violation.Total()+pb.Handler.Total()+pb.Reset.Total() != m.Bytes().Total() {
		t.Fatal("phase byte sum mismatch")
	}
}
