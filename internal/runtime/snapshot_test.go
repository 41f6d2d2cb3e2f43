package runtime

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestRestoreValidatesFilters pins the pool's half of the restore bugfix:
// a checkpoint whose keys the filters its machine frame records do not
// guard — a key moved past the installed bound, a machine frame with
// another membership or stale bounds — is rejected with
// coord.ErrFilterState; the untouched frame restores (with another shard
// count) into a monitor that stays bit-identical to its twin, frames
// included. The monitors run on pools of three shards, the restored one on
// five.
func TestRestoreValidatesFilters(t *testing.T) {
	for _, eps := range []float64{0, 0.05} {
		cfg := Config{N: 24, K: 4, Seed: 11, Epsilon: eps}
		twin, live := onShards(cfg, 3), onShards(cfg, 3)
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
		var ms wire.MachineState
		if err := ms.Decode(mach); err != nil {
			t.Fatal(err)
		}
		m, err := coord.RestoreMachine(mach)
		if err != nil {
			t.Fatal(err)
		}
		in := m.Installed()
		member, outsider := live.Top()[0], 0
		for slices.Contains(live.Top(), outsider) {
			outsider++
		}
		rejected := func(name string, mach, frame []byte) {
			t.Helper()
			if rt, err := core.RestoreOn(cfg.core(), sharding(3), &wire.Checkpoint{Machine: mach, Nodes: frame}, nil); !errors.Is(err, coord.ErrFilterState) {
				t.Errorf("eps=%v %s: restore returned %v, want coord.ErrFilterState", eps, name, err)
				if rt != nil {
					rt.Close()
				}
			}
		}
		// A value one above a bound's has a key above it whatever the id,
		// and one below has a key below it.
		codec := order.NewCodec(cfg.N)
		hi, _ := codec.Decode(in.Hi)
		lo, _ := codec.Decode(in.Lo)
		for name, mut := range map[string]func(s *wire.BankState){
			"an outsider's key above its bound": func(s *wire.BankState) { s.Vals[outsider] = hi + 1 },
			"a member's key below its bound":    func(s *wire.BankState) { s.Vals[member] = lo - 1 },
		} {
			s := bs
			s.Vals = append([]int64(nil), bs.Vals...)
			mut(&s)
			rejected(name, mach, s.Append(nil))
		}
		for name, mut := range map[string]func(s *wire.MachineState){
			"a member the keys lack": func(s *wire.MachineState) {
				s.Top = slices.DeleteFunc(s.Top, func(id int) bool { return id == member })
				s.Top = append(s.Top, outsider)
				slices.Sort(s.Top)
			},
			"stale bounds": func(s *wire.MachineState) {
				s.TPlus, s.TMinus = s.TPlus+1<<30, s.TMinus+1<<30
				s.CurLo, s.CurHi = s.CurLo+1<<30, s.CurHi+1<<30
			},
		} {
			s := ms
			s.Top = append([]int(nil), ms.Top...)
			mut(&s)
			rejected(name, s.Append(nil), nodes)
		}
		// Columns that disagree with Hi − Lo, and a bank that is not the
		// machine's range, are rejected one way or another.
		part := bs
		part.Hi--
		part.Vals = bs.Vals[:cfg.N-1]
		short := append(bs.BankHeader.Append(nil), part.Append(nil)[len(part.BankHeader.Append(nil)):]...)
		for name, frame := range map[string][]byte{"a one-node-short bank": part.Append(nil), "one node's value missing": short} {
			if rt, err := core.RestoreOn(cfg.core(), sharding(3), &wire.Checkpoint{Machine: mach, Nodes: frame}, nil); err == nil {
				t.Errorf("eps=%v %s: restored", eps, name)
				rt.Close()
			}
		}

		// The untouched bank restores (with another shard count) and stays
		// bit-identical to the twin.
		back, err := core.RestoreOn(cfg.core(), sharding(5), &wire.Checkpoint{Machine: mach, Nodes: nodes}, nil)
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
// midpoint is caught and re-ranked — and the plain runtime's does not,
// though it checkpoints. The ordered runtime itself has no checkpoint: its
// machine refuses to snapshot.
func TestOrderFiltersOnlyOnTheOrderedRuntime(t *testing.T) {
	cfg := Config{N: 16, K: 3, Seed: 2}
	vals := []int64{5, 90, 12, 7, 80, 3, 9, 70, 1, 2, 4, 6, 8, 10, 11, 13}
	plain := onShards(cfg, 2)
	defer plain.Close()
	plain.Observe(vals)
	if _, _, err := plain.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := plain.AppendRanking(nil); len(got) != 0 {
		t.Fatalf("plain runtime ranks %v", got)
	}
	ord := newOrdered(cfg, 2)
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
// bank's arrays is wire.Checkpoint.Append over Snapshot's two frames — of
// a run that keeps violating filters, a bank frame the reader accepts
// holding the values behind the bank's keys and nothing else.
func TestAppendCheckpointIsTheEnvelopeOfSnapshot(t *testing.T) {
	cfg := Config{N: 64, K: 5, Seed: 5}
	rt := onShards(cfg, 3)
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
		want := wire.Checkpoint{Gen: uint64(step), Engine: wire.EngineSeq, Seed: cfg.Seed, Machine: mach, Nodes: nodes}.Append(nil)
		if buf, err = rt.AppendCheckpoint(buf[:0], uint64(step), 0, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("step %d: in-place envelope differs from the composed one", step)
		}
		var bs wire.BankState
		if err := bs.Decode(nodes); err != nil || !slices.Equal(bs.Vals, valuesOf(rt)) {
			t.Fatalf("step %d: the bank frame holds values %v (%v), the bank %v", step, bs.Vals, err, valuesOf(rt))
		}
	}
	if st := rt.Stats(); st.ViolationSteps < 5 || st.Resets < 3 {
		t.Fatalf("workload too calm: %+v", st)
	}
}

// valuesOf returns the values behind the keys of a monitor's bank, as a
// frame's value column holds them.
func valuesOf(m *core.Monitor) []int64 {
	codec := order.NewCodec(m.N())
	vals := make([]int64, 0, m.N())
	for _, k := range m.Keys() {
		v, _ := codec.Decode(k)
		vals = append(vals, v)
	}
	return vals
}
