package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/rng"
	"repro/internal/wire"
)

// walkVals drives a deterministic random walk over n nodes.
func walkVals(r *rng.RNG, vals []int64) {
	for i := range vals {
		vals[i] += int64(r.Intn(7)) - 3
	}
}

// TestSnapshotRestoreBitIdentical pins the core checkpoint contract: a
// monitor restored from an idle-point snapshot resumes bit-identically —
// reports, message and byte ledgers, stats, and the randomness streams —
// to an uninterrupted twin, at ε=0 and ε>0.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, eps := range []float64{0, 0.05} {
		cfg := Config{N: 24, K: 4, Seed: 11, Epsilon: eps}
		twin := New(cfg)
		live := New(cfg)

		wr := rng.New(99, 1)
		vals := make([]int64, cfg.N)
		for step := 0; step < 40; step++ {
			walkVals(wr, vals)
			twin.Observe(vals)
			live.Observe(vals)
		}

		machFrame, nodesFrame, err := live.Snapshot()
		if err != nil {
			t.Fatalf("eps=%v: snapshot: %v", eps, err)
		}
		restored, err := Restore(cfg, machFrame, nodesFrame)
		if err != nil {
			t.Fatalf("eps=%v: restore: %v", eps, err)
		}

		for step := 0; step < 60; step++ {
			walkVals(wr, vals)
			want := twin.Observe(vals)
			got := restored.Observe(vals)
			if len(want) != len(got) {
				t.Fatalf("eps=%v step %d: report %v, twin %v", eps, step, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("eps=%v step %d: report %v, twin %v", eps, step, got, want)
				}
			}
		}
		if twin.Counts() != restored.Counts() || twin.Bytes() != restored.Bytes() {
			t.Fatalf("eps=%v: ledgers diverged: twin %v/%v, restored %v/%v",
				eps, twin.Counts(), twin.Bytes(), restored.Counts(), restored.Bytes())
		}
		if twin.Stats() != restored.Stats() {
			t.Fatalf("eps=%v: stats diverged: twin %+v, restored %+v", eps, twin.Stats(), restored.Stats())
		}
		for _, p := range comm.Phases() {
			if twin.Ledger().PhaseCounts(p) != restored.Ledger().PhaseCounts(p) ||
				twin.Ledger().PhaseBytes(p) != restored.Ledger().PhaseBytes(p) {
				t.Fatalf("eps=%v: phase %v ledger diverged", eps, p)
			}
		}
	}
}

// TestRestoreRejectsMismatch pins that a frame never restores into a
// configuration it was not taken under.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := Config{N: 8, K: 2, Seed: 3}
	m := New(cfg)
	vals := make([]int64, cfg.N)
	for i := range vals {
		vals[i] = int64(i * 10)
	}
	m.Observe(vals)
	mach, nodes, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 9, K: 2, Seed: 3},
		{N: 8, K: 3, Seed: 3},
		{N: 8, K: 2, Seed: 3, Epsilon: 0.1},
		{N: 8, K: 2, Seed: 3, DistinctValues: true},
	}
	for i, b := range bad {
		if _, err := Restore(b, mach, nodes); err == nil {
			t.Fatalf("case %d: restore accepted a mismatched config %+v", i, b)
		}
	}
	if _, err := Restore(cfg, mach[:len(mach)-1], nodes); err == nil {
		t.Fatal("restore accepted a truncated machine frame")
	}
	if _, err := Restore(cfg, mach, nodes[:len(nodes)-1]); err == nil {
		t.Fatal("restore accepted a truncated nodes frame")
	}
}

// TestRestoreRejectsFiltersTheAlgorithmCannotHold pins the restore bugfix:
// a bank frame whose keys have left their filters, or whose filters
// contradict the machine frame, is a typed rejection — the per-node filter
// set restored any non-empty interval unchecked and then served a set its
// filters no longer guarded. So is a frame in the dialect of the engines
// that persisted dead state.
func TestRestoreRejectsFiltersTheAlgorithmCannotHold(t *testing.T) {
	cfg := Config{N: 8, K: 2, Seed: 3}
	m := New(cfg)
	m.Observe([]int64{50, 10, 80, 20, 90, 30, 70, 40}) // top: nodes 2 and 4
	mach, nodes, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var bs wire.BankState
	if err := bs.Decode(nodes); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(s *wire.BankState)
	}{
		{"an outsider's key above the bound", func(s *wire.BankState) { s.Keys[1] = s.BoundHi + 1 }},
		{"a member's key below the bound", func(s *wire.BankState) { s.Keys[2] = s.BoundLo - 1 }},
		{"stale bounds", func(s *wire.BankState) { s.BoundLo, s.BoundHi = s.Keys[4]+1, s.Keys[4]+1 }},
		{"another membership than the machine's", func(s *wire.BankState) {
			s.InTop[2], s.InTop[1] = false, true
			s.Keys[1], s.Keys[2] = s.BoundLo, s.BoundHi
		}},
		{"a member flag the machine does not have", func(s *wire.BankState) {
			s.InTop[7], s.Keys[7] = true, s.BoundLo
		}},
		{"a member the frame does not flag", func(s *wire.BankState) { s.InTop[4], s.Keys[4] = false, s.BoundHi }},
		{"crossed bounds", func(s *wire.BankState) { s.BoundLo -= 9 }},
	} {
		s := bs
		s.Keys = append([]int64(nil), bs.Keys...)
		s.InTop = append([]bool(nil), bs.InTop...)
		tc.mut(&s)
		if _, err := Restore(cfg, mach, s.Append(nil)); !errors.Is(err, coord.ErrFilterState) {
			t.Errorf("%s: restore returned %v, want coord.ErrFilterState", tc.name, err)
		}
	}
	if _, err := Restore(cfg, mach, bs.Append(nil)); err != nil {
		t.Fatalf("re-encoded untouched frame rejected: %v", err)
	}

	// Dead state — what is written and read inside one step, which engines
	// that persisted it wrote into their frames — is refused, not dropped:
	// that dialect is malformed. The frame ends with the member section of
	// members 2 and 4 (gap 3, flag; gap 2, flag) and three section ends:
	// members, violations, order filters.
	tail := []byte{3, wire.FlagNodeInTop, 2, wire.FlagNodeInTop, 0, 0, 0}
	if !bytes.HasSuffix(nodes, tail) {
		t.Fatalf("the frame ends %x, not with the members' section %x", nodes[len(nodes)-len(tail):], tail)
	}
	flag := func(at int, bits byte) []byte {
		p := bytes.Clone(nodes)
		p[len(p)-at] |= bits
		return p
	}
	for name, frame := range map[string][]byte{
		"the WasTop bit":    flag(4, 0x02),
		"the Extracted bit": flag(6, 0x04),
		"violation history": append(nodes[:len(nodes)-2:len(nodes)-2], 4, 2, 0, 0), // index 3 violated at step 1
	} {
		if _, err := Restore(cfg, mach, frame); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: restore returned %v, want wire.ErrMalformed", name, err)
		}
	}

	// What a bank beside a set-mode machine never holds, and columns that
	// disagree with the header, are rejected one way or another.
	ord := bs
	ord.OrdHi = append([]int64(nil), bs.OrdHi...)
	ord.OrdHi[3] = 99
	part := bs
	part.Hi--
	part.Keys, part.InTop, part.OrdLo, part.OrdHi = bs.Keys[:7], bs.InTop[:7], bs.OrdLo[:7], bs.OrdHi[:7]
	short := append(bs.BankHeader.Append(nil), part.Append(nil)[len(part.BankHeader.Append(nil)):]...)
	for name, frame := range map[string][]byte{
		"an order filter":                  ord.Append(nil),
		"a bank over [0, 7)":               part.Append(nil),
		"seven nodes' columns under n = 8": short,
	} {
		if _, err := Restore(cfg, mach, frame); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// TestRestorePreTimeZeroFrame pins the other end of the validation: the
// frame of a monitor that never observed — every filter [−∞, +∞], empty
// membership — restores, and the restored monitor runs its time-0 reset
// exactly as a fresh one.
func TestRestorePreTimeZeroFrame(t *testing.T) {
	for _, cfg := range []Config{{N: 12, K: 3, Seed: 5}, {N: 12, K: 3, Seed: 5, Epsilon: 0.1}, {N: 4, K: 4, Seed: 5}} {
		twin := New(cfg)
		mach, nodes, err := New(cfg).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(cfg, mach, nodes)
		if err != nil {
			t.Fatalf("%+v: pre-time-0 frame rejected: %v", cfg, err)
		}
		wr := rng.New(4, 4)
		vals := make([]int64, cfg.N)
		for step := 0; step < 30; step++ {
			walkVals(wr, vals)
			if want, got := twin.Observe(vals), restored.Observe(vals); !equalInts(want, got) {
				t.Fatalf("%+v step %d: report %v, twin %v", cfg, step, got, want)
			}
		}
		if twin.Counts() != restored.Counts() || twin.Stats() != restored.Stats() {
			t.Fatalf("%+v: twin %v %+v, restored %v %+v", cfg, twin.Counts(), twin.Stats(), restored.Counts(), restored.Stats())
		}
		tm, tn, _ := twin.Snapshot()
		rm, rn, _ := restored.Snapshot()
		if !bytes.Equal(tm, rm) || !bytes.Equal(tn, rn) {
			t.Fatalf("%+v: frames of twin and restored monitor differ", cfg)
		}
	}
}

// TestAppendCheckpointIsTheEnvelopeOfSnapshot pins the in-place path to
// the composed one: the envelope AppendCheckpoint writes straight from the
// monitor's arrays, after whatever the buffer already holds, is
// wire.Checkpoint.Append over Snapshot's two frames — and its delta
// variant wire.CheckpointDelta.Append over Snapshot's machine frame and
// the observed values of the nodes asked for, every node when the set is
// nil.
func TestAppendCheckpointIsTheEnvelopeOfSnapshot(t *testing.T) {
	for _, cfg := range []Config{{N: 300, K: 7, Seed: 5}, {N: 40, K: 40, Seed: 5, DistinctValues: true, Epsilon: 0.1}} {
		m := New(cfg)
		wr := rng.New(8, 8)
		vals := make([]int64, cfg.N)
		for i := range vals {
			vals[i] = int64(i) * 1000
		}
		var buf []byte
		for step := 0; step < 20; step++ {
			mach, nodes, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := wire.Checkpoint{Gen: uint64(step), Engine: wire.EngineSeq, Seed: cfg.Seed, Distinct: cfg.DistinctValues, Machine: mach, Nodes: nodes}.Append([]byte("pre"))
			if buf, err = m.AppendCheckpoint(append(buf[:0], "pre"...), uint64(step), 0, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%+v step %d: in-place envelope differs from the composed one", cfg, step)
			}
			if step > 0 { // before the first Observe the nodes hold 0, not vals
				delta := wire.CheckpointDelta{Gen: uint64(step), Base: 1, Engine: wire.EngineSeq, Seed: cfg.Seed, Distinct: cfg.DistinctValues, Machine: mach}
				all := delta
				dirty := make([]uint64, (cfg.N+63)/64)
				for id, v := range vals {
					all.IDs, all.Vals = append(all.IDs, id), append(all.Vals, v)
					if id%7 == step%7 || id == cfg.N-1 {
						dirty[id>>6] |= 1 << (id & 63)
						delta.IDs, delta.Vals = append(delta.IDs, id), append(delta.Vals, v)
					}
				}
				for _, c := range []struct {
					set  []uint64
					want wire.CheckpointDelta
				}{{dirty, delta}, {nil, all}} {
					if buf, err = m.AppendCheckpoint(append(buf[:0], "pre"...), uint64(step), 1, c.set); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, c.want.Append([]byte("pre"))) {
						t.Fatalf("%+v step %d: in-place delta of %d nodes differs from the composed one", cfg, step, len(c.want.IDs))
					}
				}
			}
			walkVals(wr, vals)
			m.Observe(vals)
		}
	}
}
