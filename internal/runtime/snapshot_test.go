package runtime

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/coord"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestRestoreValidatesFilters pins the concurrent engine's half of the
// restore bugfix: a bank frame whose filters are not one broadcast applied
// by the machine's membership, or no longer hold its keys, is rejected
// with coord.ErrFilterState; the untouched frame restores (with another
// shard count) into a runtime that stays bit-identical to its twin, frames
// included.
func TestRestoreValidatesFilters(t *testing.T) {
	for _, eps := range []float64{0, 0.05} {
		cfg := Config{N: 24, K: 4, Seed: 11, Epsilon: eps, Shards: 3}
		twin, live := New(cfg), New(cfg)
		defer twin.Close()
		wr := rng.New(99, 1)
		vals := make([]int64, cfg.N)
		step := func() {
			for i := range vals {
				vals[i] += int64(wr.Intn(7)) - 3
			}
		}
		for s := 0; s < 40; s++ {
			step()
			twin.Observe(vals)
			live.Observe(vals)
		}
		mach, nodes, err := live.Snapshot()
		live.Close()
		if err != nil {
			t.Fatal(err)
		}
		var ns wire.NodesState
		if err := ns.Decode(nodes); err != nil {
			t.Fatal(err)
		}
		member, outsider := live.Top()[0], 0
		for live.mach.InTop(outsider) {
			outsider++
		}
		for name, mut := range map[string]func(s *wire.NodesState){
			"a filter of its own":         func(s *wire.NodesState) { s.IvHi[outsider]++ },
			"a key outside its filter":    func(s *wire.NodesState) { s.Keys[outsider] = s.IvHi[outsider] + 1 },
			"a member the machine lacks":  func(s *wire.NodesState) { s.Flags[outsider] |= wire.FlagNodeInTop },
			"members' bound moved down":   func(s *wire.NodesState) { lowerMembers(s, 7) },
			"a member bounded from above": func(s *wire.NodesState) { s.IvHi[member] = s.Keys[member] },
		} {
			s := ns
			s.Keys = append([]int64(nil), ns.Keys...)
			s.IvLo = append([]int64(nil), ns.IvLo...)
			s.IvHi = append([]int64(nil), ns.IvHi...)
			s.Flags = append([]byte(nil), ns.Flags...)
			mut(&s)
			if rt, err := Restore(cfg, mach, s.Append(nil)); !errors.Is(err, coord.ErrFilterState) {
				t.Errorf("eps=%v %s: restore returned %v, want coord.ErrFilterState", eps, name, err)
				if rt != nil {
					rt.Close()
				}
			}
		}

		cfg.Shards = 5
		back, err := Restore(cfg, mach, nodes)
		if err != nil {
			t.Fatalf("eps=%v: untouched frames rejected: %v", eps, err)
		}
		defer back.Close()
		for s := 0; s < 40; s++ {
			step()
			want, got := twin.Observe(vals), back.Observe(vals)
			if !equal(got, want) {
				t.Fatalf("eps=%v step %d: report %v, twin %v", eps, s, got, want)
			}
		}
		tm, tn, _ := twin.Snapshot()
		bm, bn, _ := back.Snapshot()
		if !bytes.Equal(tm, bm) || !bytes.Equal(tn, bn) {
			t.Fatalf("eps=%v: frames of twin and restored runtime differ", eps)
		}
	}
}

// lowerMembers moves every member's lower bound down by d: still one
// broadcast's bounds, but crossed (ε = 0) or not the machine's band (ε > 0).
func lowerMembers(s *wire.NodesState, d int64) {
	for i := range s.IvLo {
		if s.Flags[i]&wire.FlagNodeInTop != 0 {
			s.IvLo[i] -= d
		}
	}
}

// TestOrderFiltersOnlyOnTheOrderedRuntime pins who pays for order
// filters: the ordered variant's bank holds them — allocated before the
// shards took their views, so a bound installed by a shard is the one the
// full-range bank checkpoints — and the plain runtime's bank holds none.
func TestOrderFiltersOnlyOnTheOrderedRuntime(t *testing.T) {
	cfg := Config{N: 16, K: 3, Seed: 2, Shards: 4}
	vals := []int64{5, 90, 12, 7, 80, 3, 9, 70, 1, 2, 4, 6, 8, 10, 11, 13}
	frameHasOrderFilter := func(rt *Runtime) bool {
		_, nodes, err := rt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var ns wire.NodesState
		if err := ns.Decode(nodes); err != nil {
			t.Fatal(err)
		}
		for i := range ns.OrdLo {
			if ns.OrdLo[i] != ns.OrdLo[0] || ns.OrdHi[i] != ns.OrdHi[0] {
				return true
			}
		}
		return false
	}
	plain := New(cfg)
	defer plain.Close()
	plain.Observe(vals)
	if frameHasOrderFilter(plain) {
		t.Fatal("plain runtime's bank frame carries an order filter")
	}
	ord := NewOrdered(cfg)
	defer ord.Close()
	ord.Observe(vals)
	if !frameHasOrderFilter(ord.rt) {
		t.Fatal("ordered runtime's order filters did not reach the full-range bank")
	}
}
