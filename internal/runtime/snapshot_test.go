package runtime

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestRestoreValidatesFilters pins the concurrent engine's half of the
// restore bugfix: a bank frame whose filters contradict the machine's
// membership or band, or no longer hold its keys, is rejected with
// coord.ErrFilterState; the untouched frame restores (with another shard
// count) into a runtime that stays bit-identical to its twin, frames
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
		var bs wire.BankState
		if err := bs.Decode(nodes); err != nil {
			t.Fatal(err)
		}
		member, outsider := live.Top()[0], 0
		for slices.Contains(live.Top(), outsider) {
			outsider++
		}
		rejected := func(name string, frame []byte) {
			t.Helper()
			if rt, err := Restore(cfg, mach, frame); !errors.Is(err, coord.ErrFilterState) {
				t.Errorf("eps=%v %s: restore returned %v, want coord.ErrFilterState", eps, name, err)
				if rt != nil {
					rt.Close()
				}
			}
		}
		for name, mut := range map[string]func(s *wire.BankState){
			"a key outside its filter": func(s *wire.BankState) { s.Keys[outsider] = s.BoundHi + 1 },
			"stale bounds":             func(s *wire.BankState) { s.BoundHi = s.Keys[outsider] - 1 },
			"a member the machine lacks": func(s *wire.BankState) {
				s.InTop[outsider] = true
				s.Keys[outsider] = s.BoundLo // inside the filter the forged bit derives
			},
			"a member the frame drops": func(s *wire.BankState) {
				s.InTop[member] = false
				s.Keys[member] = s.BoundHi // inside the filter the dropped bit derives
			},
			"members' bound moved down": func(s *wire.BankState) { s.BoundLo -= 7 },
		} {
			s := bs
			s.Keys = append([]int64(nil), bs.Keys...)
			s.InTop = append([]bool(nil), bs.InTop...)
			mut(&s)
			rejected(name, s.Append(nil))
		}
		// Columns that disagree with Hi − Lo, and a bank that is not the
		// machine's range, are rejected one way or another.
		part := bs
		part.Hi--
		part.Keys, part.InTop = bs.Keys[:cfg.N-1], bs.InTop[:cfg.N-1]
		part.OrdLo, part.OrdHi = bs.OrdLo[:cfg.N-1], bs.OrdHi[:cfg.N-1]
		short := append(bs.BankHeader.Append(nil), part.Append(nil)[len(part.BankHeader.Append(nil)):]...)
		for name, frame := range map[string][]byte{"a one-node-short bank": part.Append(nil), "one node's columns missing": short} {
			if rt, err := Restore(cfg, mach, frame); err == nil {
				t.Errorf("eps=%v %s: restored", eps, name)
				rt.Close()
			}
		}

		// The untouched bank restores (with another shard count) and stays
		// bit-identical to the twin.
		cfg.Shards = 5
		back, err := Restore(cfg, mach, nodes)
		if err != nil {
			t.Fatalf("eps=%v: untouched frame rejected: %v", eps, err)
		}
		defer back.Close()
		bm, bn, _ := back.Snapshot()
		if !bytes.Equal(bm, mach) || !bytes.Equal(bn, nodes) {
			t.Fatalf("eps=%v: the restored runtime re-emits other frames", eps)
		}
		for s := 0; s < 40; s++ {
			step()
			want, got := twin.Observe(vals), back.Observe(vals)
			if !equal(got, want) {
				t.Fatalf("eps=%v step %d: report %v, twin %v", eps, s, got, want)
			}
		}
		tm, tn, _ := twin.Snapshot()
		bm, bn, _ = back.Snapshot()
		if !bytes.Equal(tm, bm) || !bytes.Equal(tn, bn) {
			t.Fatalf("eps=%v: frames of twin and restored runtime differ", eps)
		}
	}
}

// TestOrderFiltersOnlyOnTheOrderedRuntime pins who pays for order
// filters: the ordered mode's bank holds them — the monitor installs and
// checks them on the full-range bank while the shards are parked, so a move
// that keeps the top set and every set filter but crosses a neighbour's
// midpoint is caught and re-ranked — and the plain runtime's bank frame
// carries none. The ordered runtime itself has no checkpoint: its machine
// refuses to snapshot.
func TestOrderFiltersOnlyOnTheOrderedRuntime(t *testing.T) {
	cfg := Config{N: 16, K: 3, Seed: 2, Shards: 4}
	vals := []int64{5, 90, 12, 7, 80, 3, 9, 70, 1, 2, 4, 6, 8, 10, 11, 13}
	plain := New(cfg)
	defer plain.Close()
	plain.Observe(vals)
	_, nodes, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var ns wire.BankState
	if err := ns.Decode(nodes); err != nil {
		t.Fatal(err)
	}
	for i := range ns.OrdLo {
		if ns.OrdLo[i] != ns.OrdLo[0] || ns.OrdHi[i] != ns.OrdHi[0] {
			t.Fatal("plain runtime's bank frame carries an order filter")
		}
	}
	if got := plain.AppendRanking(nil); len(got) != 0 {
		t.Fatalf("plain runtime ranks %v", got)
	}
	ord := newOrdered(cfg)
	defer ord.Close()
	if got, want := observeRanked(ord, vals), []int{1, 4, 7}; !equal(got, want) {
		t.Fatalf("ranking %v, want %v", got, want)
	}
	// Nodes 4 and 7 trade ranks far above the set filter's midpoint: only
	// the order filters installed in the bank can notice.
	before := ord.Counts()
	vals[4], vals[7] = 72, 78
	if got, want := observeRanked(ord, vals), []int{1, 7, 4}; !equal(got, want) {
		t.Fatalf("ranking %v after the swap, want %v: the order filters did not reach the bank the checks read", got, want)
	}
	if st := ord.Stats(); st.ViolationSteps != 0 || ord.Counts() == before {
		t.Fatalf("the swap was not an order-filter matter: %+v, counts %v -> %v", st, before, ord.Counts())
	}
	if _, _, err := ord.Snapshot(); err == nil {
		t.Fatal("ordered runtime snapshotted; its ranking has no frame")
	}
	if _, err := ord.AppendCheckpoint(nil, 1, 0, nil); err == nil {
		t.Fatal("ordered runtime wrote a checkpoint envelope; its ranking has no frame")
	}
}

// TestAppendCheckpointIsTheEnvelopeOfSnapshot pins the in-place path to
// the composed one: the envelope AppendCheckpoint writes straight from the
// bank's arrays is wire.Checkpoint.Append over Snapshot's two frames — which
// carry live state only: of a run that keeps violating filters, the k
// membership bits, and a frame the bank reader accepts.
func TestAppendCheckpointIsTheEnvelopeOfSnapshot(t *testing.T) {
	cfg := Config{N: 64, K: 5, Seed: 5, Shards: 3}
	rt := New(cfg)
	defer rt.Close()
	wr := rng.New(8, 8)
	vals := make([]int64, cfg.N)
	var buf []byte
	for step := 0; step < 30; step++ {
		for i := range vals {
			vals[i] += int64(wr.Intn(41)) - 20
		}
		rt.Observe(vals)
		mach, nodes, err := rt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := wire.Checkpoint{Gen: uint64(step), Engine: wire.EngineConc, Seed: cfg.Seed, Machine: mach, Nodes: nodes}.Append(nil)
		if buf, err = rt.AppendCheckpoint(buf[:0], uint64(step), 0, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("step %d: in-place envelope differs from the composed one", step)
		}
		var bs wire.BankState
		if err := bs.Decode(nodes); err != nil {
			t.Fatal(err)
		}
		members := 0
		for _, in := range bs.InTop {
			if in {
				members++
			}
		}
		if members != cfg.K {
			t.Fatalf("step %d: frame flags %d members, k = %d", step, members, cfg.K)
		}
	}
	if st := rt.Stats(); st.ViolationSteps < 5 || st.Resets < 3 {
		t.Fatalf("workload too calm: %+v", st)
	}
}
