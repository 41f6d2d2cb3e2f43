package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
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
		restored, err := RestoreOn(cfg, Inline, &wire.Checkpoint{Machine: machFrame, Nodes: nodesFrame}, nil)
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
	}
	for i, b := range bad {
		if _, err := RestoreOn(b, Inline, &wire.Checkpoint{Machine: mach, Nodes: nodes}, nil); err == nil {
			t.Fatalf("case %d: restore accepted a mismatched config %+v", i, b)
		}
	}
	if _, err := RestoreOn(cfg, Inline, &wire.Checkpoint{Machine: mach[:len(mach)-1], Nodes: nodes}, nil); err == nil {
		t.Fatal("restore accepted a truncated machine frame")
	}
	if _, err := RestoreOn(cfg, Inline, &wire.Checkpoint{Machine: mach, Nodes: nodes[:len(nodes)-1]}, nil); err == nil {
		t.Fatal("restore accepted a truncated nodes frame")
	}
}

// TestRestoreRejectsFiltersTheAlgorithmCannotHold pins the restore bugfix:
// a checkpoint whose keys have left the filters its machine frame
// records — a key moved past the installed bound, or a machine frame with
// another membership or stale bounds — is a typed rejection: the per-node
// filter set restored any non-empty interval unchecked and then served a
// set its filters no longer guarded. So is a bank frame in the dialect of
// the engines that persisted bounds and membership beside the keys, one in
// the dialect that persisted keys where values do, and one with bytes
// after its values.
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
	var ms wire.MachineState
	if err := ms.Decode(mach); err != nil {
		t.Fatal(err)
	}
	codec := order.NewCodec(cfg.N)
	mid := int64(m.mach.Installed().Lo)
	// A value one above the bound's has a key above it whatever the id, and
	// one below has a key below it.
	midVal, _ := codec.Decode(m.mach.Installed().Lo)
	restore := func(mach, nodes []byte) error {
		_, err := RestoreOn(cfg, Inline, &wire.Checkpoint{Machine: mach, Nodes: nodes}, nil)
		return err
	}
	for name, mut := range map[string]func(s *wire.BankState){
		"an outsider's key above the bound": func(s *wire.BankState) { s.Vals[1] = midVal + 1 },
		"a member's key below the bound":    func(s *wire.BankState) { s.Vals[2] = midVal - 1 },
	} {
		s := bs
		s.Vals = append([]int64(nil), bs.Vals...)
		mut(&s)
		if err := restore(mach, s.Append(nil)); !errors.Is(err, coord.ErrFilterState) {
			t.Errorf("%s: restore returned %v, want coord.ErrFilterState", name, err)
		}
	}
	for name, mut := range map[string]func(s *wire.MachineState){
		"another membership than the bank's keys": func(s *wire.MachineState) { s.Top = []int{1, 4} },
		"stale bounds": func(s *wire.MachineState) {
			key := int64(codec.Encode(bs.Vals[4], 4))
			s.TPlus, s.TMinus = key+1, key+1
		},
	} {
		s := ms
		s.Top = append([]int(nil), ms.Top...)
		mut(&s)
		if err := restore(s.Append(nil), nodes); !errors.Is(err, coord.ErrFilterState) {
			t.Errorf("%s: restore returned %v, want coord.ErrFilterState", name, err)
		}
	}
	crossed := ms
	crossed.TMinus = ms.TPlus + 9 // a machine that would have reset
	if err := restore(crossed.Append(nil), nodes); err == nil {
		t.Error("crossed bounds: restored")
	}
	if err := restore(mach, bs.Append(nil)); err != nil {
		t.Fatalf("re-encoded untouched frame rejected: %v", err)
	}

	// The keys dialect: flags 0x06 and each node's key where its value is.
	// And the one before it: flags 0x02, the installed bounds after the
	// header, the keys, the member section of members 2 and 4 (gap 3, flag;
	// gap 2, flag) and three section ends — refused, not read.
	hdr := len(bs.BankHeader.Append(nil))
	keyed := append(bytes.Clone(nodes[:hdr-1]), 0x06)
	for id, v := range bs.Vals {
		keyed = wire.AppendVarint(keyed, int64(codec.Encode(v, id)))
	}
	old := append(bytes.Clone(keyed[:hdr]), wire.AppendVarint(wire.AppendVarint(nil, mid), mid)...)
	old[hdr-1] = 0x02
	old = append(append(old, keyed[hdr:]...), 3, 1, 2, 1, 0, 0, 0)
	for name, c := range map[string]struct {
		frame []byte
		want  error
	}{
		"the keys dialect":       {keyed, wire.ErrMalformed},
		"the previous dialect":   {old, wire.ErrMalformed},
		"bytes after the values": {append(bytes.Clone(nodes), 0), wire.ErrTrailingBytes},
		"the raw-value key bit":  {append(append(bytes.Clone(nodes[:hdr-1]), nodes[hdr-1]|0x01), nodes[hdr:]...), wire.ErrMalformed},
	} {
		if err := restore(mach, c.frame); !errors.Is(err, c.want) {
			t.Errorf("%s: restore returned %v, want %v", name, err, c.want)
		}
	}

	// Columns that disagree with the header, and a bank of another range,
	// are rejected one way or another.
	part := bs
	part.Hi--
	part.Vals = bs.Vals[:7]
	short := append(bs.BankHeader.Append(nil), part.Append(nil)[len(part.BankHeader.Append(nil)):]...)
	for name, frame := range map[string][]byte{
		"a bank over [0, 7)":              part.Append(nil),
		"seven nodes' values under n = 8": short,
	} {
		if err := restore(mach, frame); err == nil {
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
		restored, err := RestoreOn(cfg, Inline, &wire.Checkpoint{Machine: mach, Nodes: nodes}, nil)
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
	for _, cfg := range []Config{{N: 300, K: 7, Seed: 5}, {N: 40, K: 40, Seed: 5, Epsilon: 0.1}} {
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
			want := wire.Checkpoint{Gen: uint64(step), Engine: wire.EngineSeq, Seed: cfg.Seed, Machine: mach, Nodes: nodes}.Append([]byte("pre"))
			if buf, err = m.AppendCheckpoint(append(buf[:0], "pre"...), uint64(step), 0, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%+v step %d: in-place envelope differs from the composed one", cfg, step)
			}
			if step > 0 { // before the first Observe the nodes hold 0, not vals
				delta := wire.CheckpointDelta{Gen: uint64(step), Base: 1, Engine: wire.EngineSeq, Seed: cfg.Seed, Machine: mach}
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
