package topk

import (
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/stream"
)

func TestNewOrderedValidation(t *testing.T) {
	if _, err := NewOrdered(Config{Nodes: 0, K: 1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewOrdered(Config{Nodes: 3, K: 4}); err == nil {
		t.Fatal("expected error")
	}
	m, err := NewOrdered(Config{Nodes: poolNodes, K: 1})
	if err != nil {
		t.Fatalf("an ordered monitor of the pool's size should be supported: %v", err)
	}
	m.Close()
	m.Close() // idempotent
}

// TestOrderedEnginesAgree holds the ordered mode on the shard pool to the
// ordered mode inline: one monitor of poolNodes built at GOMAXPROCS 1, one
// at 2, fed the same dense walk, must agree on every ranking, count, byte
// and statistic.
func TestOrderedEnginesAgree(t *testing.T) {
	const n = poolNodes
	cfg := Config{Nodes: n, K: 3, Seed: 41}
	seq, conc := newAtProcs(t, 1, NewOrdered, cfg), newAtProcs(t, 2, NewOrdered, cfg)
	mk := func() stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 800, Seed: 42})
	}
	a, b := mk(), mk()
	va, vb := make([]int64, n), make([]int64, n)
	var ta, tb []int
	for s := 0; s < 150; s++ {
		a.Step(va)
		b.Step(vb)
		_, err1 := seq.Observe(va)
		_, err2 := conc.Observe(vb)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		ta, tb = seq.AppendRanking(ta[:0]), conc.AppendRanking(tb[:0])
		if len(ta) != 3 || !slices.Equal(ta, tb) {
			t.Fatalf("step %d: rankings differ: %v vs %v", s, ta, tb)
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
	const n, k = 10, 4
	for _, delta := range []bool{false, true} {
		m, err := NewOrdered(Config{Nodes: n, K: k, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 700, Seed: 22})
		vals, prev := make([]int64, n), make([]int64, n)
		var ids []int
		var moved []int64
		var got []int
		for s := 0; s < 300; s++ {
			src.Step(vals)
			if delta {
				// The nodes that moved since the last step, as a sparse feed sends them.
				ids, moved = ids[:0], moved[:0]
				for id, v := range vals {
					if v != prev[id] {
						ids, moved = append(ids, id), append(moved, v)
					}
				}
				copy(prev, vals)
				_, err = m.ObserveDelta(ids, moved)
			} else {
				_, err = m.Observe(vals)
			}
			if err != nil {
				t.Fatal(err)
			}
			got = m.AppendRanking(got[:0])
			if want := order.RankOracle(vals, k); !slices.Equal(got, want) {
				t.Fatalf("delta=%v step %d: ranking %v, want %v", delta, s, got, want)
			}
		}
		if m.Counts().Total() == 0 {
			t.Fatal("no messages counted")
		}
		if m.Stats().Steps != 300 {
			t.Fatalf("stats: %+v", m.Stats())
		}
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
	if len(m.AppendRanking(nil)) != 0 {
		t.Fatal("pre-observe ranking should be empty")
	}
	if _, err := m.Observe([]int64{10, 50, 30, 20, 40}); err != nil {
		t.Fatal(err)
	}
	if r := m.AppendRanking(nil); !slices.Equal(r, []int{1, 4, 2}) {
		t.Fatalf("rank order: %v", r)
	}
	if top := m.Top(); !slices.Equal(top, []int{1, 2, 4}) {
		t.Fatalf("Top of an ordered monitor is the set, ascending: %v", top)
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

// TestAppendRanking pins the ranking view's contract: a monitor from New
// appends nothing, nor does a closed ordered one, and an ordered monitor
// reads its ranking into a dst of capacity >= K without allocating.
func TestAppendRanking(t *testing.T) {
	vals := []int64{10, 50, 30, 20, 40}
	dst := []int{7}
	set, err := New(Config{Nodes: 5, K: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := set.Observe(vals); err != nil {
		t.Fatal(err)
	}
	if got := set.AppendRanking(dst); !slices.Equal(got, []int{7}) || &got[0] != &dst[0] {
		t.Fatalf("New monitor's AppendRanking changed dst: %v", got)
	}
	m, err := NewOrdered(Config{Nodes: 5, K: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(vals); err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 3)
	if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendRanking(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendRanking with cap(dst) = K allocates %v times", allocs)
	}
	if !slices.Equal(buf, []int{1, 4, 2}) {
		t.Fatalf("ranking %v", buf)
	}
	m.Close()
	if got := m.AppendRanking(dst); !slices.Equal(got, []int{7}) {
		t.Fatalf("closed monitor's AppendRanking changed dst: %v", got)
	}
}
