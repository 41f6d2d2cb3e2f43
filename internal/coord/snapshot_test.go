package coord

import (
	"bytes"
	"testing"

	"repro/internal/comm"
	"repro/internal/stream"
	"repro/internal/wire"
)

// checkpoint round-trips the driver through its wire frames and returns
// the restored copy.
func checkpoint(t *testing.T, d *driver) *driver {
	t.Helper()
	mframe, err := d.mach.Snapshot(nil)
	if err != nil {
		t.Fatalf("machine snapshot: %v", err)
	}
	nframe := d.bank.Snapshot(nil)
	mach, err := RestoreMachine(mframe)
	if err != nil {
		t.Fatalf("restore machine: %v", err)
	}
	bank, err := RestoreNodes(nframe, d.bank.seed)
	if err != nil {
		t.Fatalf("restore nodes: %v", err)
	}
	return &driver{mach: mach, bank: bank, see: bank.Observe, round: bank.Round}
}

// TestSnapshotRestoreResumesBitIdentically is the acceptance pin for
// coordinator crash recovery: a run that checkpoints and restores halfway
// produces reports, statistics, ledgers and even final checkpoint bytes
// identical to a run that never stopped.
func TestSnapshotRestoreResumesBitIdentically(t *testing.T) {
	const n, k, steps, cut = 12, 3, 300, 150
	ref := newDriver(n, k, 77)
	run := newDriver(n, k, 77)
	src1 := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 5})
	src2 := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 5})
	v1, v2 := make([]int64, n), make([]int64, n)
	for s := 0; s < steps; s++ {
		if s == cut {
			run = checkpoint(t, run)
		}
		src1.Step(v1)
		src2.Step(v2)
		want := ref.observe(v1)
		got := run.observe(v2)
		if !equal(got, want) {
			t.Fatalf("step %d: restored run reports %v, uninterrupted %v", s, got, want)
		}
	}
	if ref.mach.Stats() != run.mach.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", run.mach.Stats(), ref.mach.Stats())
	}
	if ref.mach.Counts() != run.mach.Counts() || ref.mach.Bytes() != run.mach.Bytes() {
		t.Fatalf("ledger totals diverged: %v/%v vs %v/%v",
			run.mach.Counts(), run.mach.Bytes(), ref.mach.Counts(), ref.mach.Bytes())
	}
	for _, p := range comm.Phases() {
		if ref.mach.Ledger().PhaseCounts(p) != run.mach.Ledger().PhaseCounts(p) ||
			ref.mach.Ledger().PhaseBytes(p) != run.mach.Ledger().PhaseBytes(p) {
			t.Fatalf("phase %v ledger diverged", p)
		}
	}
	refM, err := ref.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	runM, err := run.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refM, runM) {
		t.Fatal("final machine checkpoints differ")
	}
	if !bytes.Equal(ref.bank.Snapshot(nil), run.bank.Snapshot(nil)) {
		t.Fatal("final bank checkpoints differ")
	}
}

// TestSnapshotRequiresIdle pins the in-flight guard: mid-step machine
// state references substrate interactions and must not serialize.
func TestSnapshotRequiresIdle(t *testing.T) {
	m := New(Config{N: 4, K: 2})
	m.BeginStep()
	if _, err := m.Snapshot(nil); err == nil {
		t.Fatal("snapshot of an in-flight machine succeeded")
	}
}

// TestAbortForceResetReconverges exercises the failover primitives the
// engines build on: abandoning a step mid-flight and forcing a reset
// leaves the machine reporting the oracle again on the very next step.
func TestAbortForceResetReconverges(t *testing.T) {
	const n, k = 10, 3
	d := newDriver(n, k, 21)
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 9})
	vals := make([]int64, n)
	for s := 0; s < 50; s++ {
		src.Step(vals)
		d.observe(vals)
	}
	// Simulate a peer dying mid-step: the step cannot complete, so the
	// adapter abandons it and re-converges through a forced reset.
	d.mach.BeginStep()
	d.mach.Abort()
	resets := d.mach.Stats().Resets
	d.drive(d.mach.ForceReset(), d.mach.Step())
	if got := d.mach.Stats().Resets; got != resets+1 {
		t.Fatalf("forced reset not counted: %d -> %d", resets, got)
	}
	if want := oracle(vals, k); !equal(d.mach.Top(), want) {
		t.Fatalf("after forced reset: got %v want %v", d.mach.Top(), want)
	}
	for s := 0; s < 50; s++ {
		src.Step(vals)
		got := d.observe(vals)
		if want := oracle(vals, k); !equal(got, want) {
			t.Fatalf("post-recovery step %d: got %v want %v", s, got, want)
		}
	}
}

// TestForceResetPanicsInFlight pins the misuse guard.
func TestForceResetPanicsInFlight(t *testing.T) {
	m := New(Config{N: 4, K: 2})
	m.BeginStep()
	defer func() {
		if recover() == nil {
			t.Fatal("ForceReset mid-step did not panic")
		}
	}()
	m.ForceReset()
}

// TestRestoreRejectsInvalidState feeds semantically corrupt checkpoints to
// the restore functions: each must fail with an error, never build a
// machine or bank that misbehaves later.
func TestRestoreRejectsInvalidState(t *testing.T) {
	base := wire.MachineState{
		N: 8, K: 2, Step: 5, Init: true,
		Steps: 5, Resets: 1, TopChanges: 1,
		Top: []int{1, 5},
	}
	cases := []struct {
		name string
		mut  func(s *wire.MachineState)
	}{
		{"zero n", func(s *wire.MachineState) { s.N, s.K, s.Top = 0, 0, nil }},
		{"k > n", func(s *wire.MachineState) { s.K = 9; s.Top = []int{0, 1, 2, 3, 4, 5, 6, 7} }},
		{"init without steps", func(s *wire.MachineState) { s.Step, s.Steps = 0, 0 }},
		{"steps without init", func(s *wire.MachineState) { s.Init = false }},
		{"membership too small", func(s *wire.MachineState) { s.Top = []int{3} }},
		{"membership id out of range", func(s *wire.MachineState) { s.Top = []int{1, 8} }},
		{"negative step", func(s *wire.MachineState) { s.Step = -1 }},
		{"negative ledger cell", func(s *wire.MachineState) { s.Counts[4] = -1 }},
		{"negative ledger bytes", func(s *wire.MachineState) { s.Bytes[7] = -2 }},
	}
	for _, tc := range cases {
		s := base
		s.Top = append([]int(nil), base.Top...)
		tc.mut(&s)
		if _, err := RestoreMachine(s.Append(nil)); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
	}

	if _, err := RestoreNodes(wire.BankState{BankHeader: wire.BankHeader{N: 8, Lo: 3, Hi: 3}}.Append(nil), 0); err == nil {
		t.Error("empty node range accepted")
	}
}

// TestRestoreNeverPanics bit-flips every position of valid checkpoint
// frames and requires the restore path to return (value or error) without
// panicking — the wire decoders guarantee framing, this pins the semantic
// layer on top.
func TestRestoreNeverPanics(t *testing.T) {
	d := newDriver(8, 3, 7)
	src := stream.NewRandomWalk(stream.WalkConfig{N: 8, Lo: 0, Hi: 1 << 12, MaxStep: 100, Seed: 3})
	vals := make([]int64, 8)
	for s := 0; s < 20; s++ {
		src.Step(vals)
		d.observe(vals)
	}
	mframe, err := d.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{mframe, d.bank.Snapshot(nil)} {
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[i] ^= 1 << bit
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("restore panicked on byte %d bit %d: %v", i, bit, r)
						}
					}()
					_, _ = RestoreMachine(mut)
					_, _ = RestoreNodes(mut, 0)
				}()
			}
		}
	}
}
