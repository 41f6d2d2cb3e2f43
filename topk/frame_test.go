package topk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// goldenV1 lists the checkpoint envelopes under testdata/ that the parent
// of the v2 frame wrote (commit d88c7dc, through Monitor.Checkpoint): each
// is the state of a monitor with the given configuration after the given
// number of goldenWalk steps. They are v1 — nine fields a node — and pin
// that stores written before the v2 frame keep restoring.
//
// The monitors that wrote them reset with k+1 executions and drew their
// coins from per-node generators, so a frame holds the ledger of a history
// this build prices differently (and generator states it reads past):
// atFrame is the ledger the frame carries, after80 the restored monitor's 80
// steps later — the frame's plus what a twin that never stopped charges for
// those 80 steps, coin for coin — and the twin agrees with the restored
// monitor on every decision, not on what the frame's history cost.
var goldenV1 = []struct {
	file             string
	cfg              Config
	steps            int
	atFrame, after80 string
}{
	{"v1_seq_exact.ckpt", Config{Nodes: 48, K: 5, Seed: 21}, 60,
		"{2045 0 2849}/{10225 0 16737} {{115 0 461} {161 0 238} {1769 0 2150}}/{{575 0 3719} {805 0 1302} {8845 0 11716}}",
		"{3361 0 3907}/{16805 0 24323} {{194 0 876} {357 0 513} {2810 0 2518}}/{{970 0 7208} {1785 0 2817} {14050 0 14298}}"},
	{"v1_seq_eps.ckpt", Config{Nodes: 48, K: 5, Seed: 21, Epsilon: 0.05}, 60,
		"{31 0 43}/{155 0 224} {{0 0 0} {0 0 0} {31 0 43}}/{{0 0 0} {0 0 0} {155 0 224}}",
		"{49 0 62}/{245 0 384} {{1 0 7} {2 0 4} {46 0 51}}/{{5 0 77} {10 0 27} {230 0 280}}"},
	{"v1_conc_exact.ckpt", Config{Nodes: 48, K: 5, Seed: 21, Concurrent: true}, 60,
		"{2045 0 2849}/{10225 0 16737} {{115 0 461} {161 0 238} {1769 0 2150}}/{{575 0 3719} {805 0 1302} {8845 0 11716}}",
		"{3361 0 3907}/{16805 0 24323} {{194 0 876} {357 0 513} {2810 0 2518}}/{{970 0 7208} {1785 0 2817} {14050 0 14298}}"},
	{"v1_conc_eps.ckpt", Config{Nodes: 48, K: 5, Seed: 21, Epsilon: 0.05, Concurrent: true}, 60,
		"{31 0 43}/{155 0 224} {{0 0 0} {0 0 0} {31 0 43}}/{{0 0 0} {0 0 0} {155 0 224}}",
		"{49 0 62}/{245 0 384} {{1 0 7} {2 0 4} {46 0 51}}/{{5 0 77} {10 0 27} {230 0 280}}"},
	{"v1_seq_pretime0.ckpt", Config{Nodes: 48, K: 5, Seed: 21}, 0,
		"{0 0 0}/{0 0 0} {{0 0 0} {0 0 0} {0 0 0}}/{{0 0 0} {0 0 0} {0 0 0}}",
		"{1823 0 1432}/{9115 0 10247} {{147 0 593} {226 0 319} {1450 0 520}}/{{735 0 4813} {1130 0 1791} {7250 0 3643}}"},
}

// goldenWalk is the input the golden frames were taken under: every node
// starts at 1000 and takes ckptWalk steps drawn from one generator.
func goldenWalk() func(vals []int64) {
	wr := rng.New(77, 2)
	first := true
	return func(vals []int64) {
		if first {
			for i := range vals {
				vals[i] = 1000
			}
			first = false
		}
		ckptWalk(wr, vals)
	}
}

// sameDecisions fails unless a restored monitor and its twin agree on every
// decision taken so far, and the restored monitor's ledger — counts and
// bytes, in total and by phase — is the recorded one.
func sameDecisions(t *testing.T, where string, got, twin *Monitor, ledger string) {
	t.Helper()
	if got.Stats() != twin.Stats() {
		t.Fatalf("%s: stats diverged: %+v, twin %+v", where, got.Stats(), twin.Stats())
	}
	if !equalIDs(got.Top(), twin.Top()) {
		t.Fatalf("%s: report %v, twin %v", where, got.Top(), twin.Top())
	}
	if led := fmt.Sprintf("%v/%v %v/%v", got.Counts(), got.Bytes(), got.Phases(), got.BytesByPhase()); led != ledger {
		t.Errorf("%s: the restored monitor left the recorded ledger:\n got %s\nwant %s", where, led, ledger)
	}
}

// sameFrameDecisions fails unless two envelopes hold the same state but for
// what a history's price leaves behind: the machine's ledger and the
// nodes' generator states.
func sameFrameDecisions(t *testing.T, where string, a, b wire.Checkpoint) {
	t.Helper()
	var sections [2][]byte
	for i, c := range []wire.Checkpoint{a, b} {
		var ms wire.MachineState
		var bs wire.BankState
		if err := ms.Decode(c.Machine); err != nil {
			t.Fatal(err)
		}
		if err := bs.Decode(c.Nodes); err != nil {
			t.Fatal(err)
		}
		ms.Counts, ms.Bytes = [wire.MachineLedgerCells]int64{}, [wire.MachineLedgerCells]int64{}
		bs.Gens = false // a recorded frame's generator column is read past
		sections[i] = bs.Append(ms.Append(nil))
	}
	if !bytes.Equal(sections[0], sections[1]) {
		t.Fatalf("%s: the frames differ in more than ledger and generators", where)
	}
}

// TestRestoreGoldenV1Frames restores each committed v1 envelope and runs
// the monitor against a twin that never stopped: the same reports, counts,
// bytes and phase ledgers, and — once both checkpoint again — the same v2
// frame. The backward-compatibility pin of the v2 frame.
func TestRestoreGoldenV1Frames(t *testing.T) {
	for _, g := range goldenV1 {
		frame, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var c wire.Checkpoint
		if err := c.Decode(frame); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if len(c.Nodes) == 0 || c.Nodes[0] != wire.TypeNodesState {
			t.Fatalf("%s: not a v1 bank frame", g.file)
		}
		old := MemCheckpoints()
		if err := old.Save(c.Gen, frame); err != nil {
			t.Fatal(err)
		}
		newStore, twinStore := MemCheckpoints(), MemCheckpoints()
		cfg := g.cfg
		cfg.Checkpoint = Checkpoint{Store: newStore}
		restored, err := Restore(old, cfg)
		if err != nil {
			t.Fatalf("%s: restore: %v", g.file, err)
		}
		defer restored.Close()
		cfg.Checkpoint = Checkpoint{Store: twinStore}
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()

		walk := goldenWalk()
		vals := make([]int64, cfg.Nodes)
		for s := 0; s < g.steps; s++ {
			walk(vals)
			if _, err := twin.Observe(vals); err != nil {
				t.Fatal(err)
			}
		}
		sameDecisions(t, g.file+" at the frame", restored, twin, g.atFrame)
		for s := 0; s < 80; s++ {
			walk(vals)
			want, err := twin.Observe(vals)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Observe(vals)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(want, got) {
				t.Fatalf("%s step %d: report %v, twin %v", g.file, s, got, want)
			}
		}
		sameDecisions(t, g.file+" after 80 steps", restored, twin, g.after80)

		// The restored monitor writes v2 like any other, and the same v2.
		var frames [2]wire.Checkpoint
		for i, m := range []*Monitor{restored, twin} {
			if _, err := m.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, f, err := []CheckpointStore{newStore, twinStore}[i].Load()
			if err != nil {
				t.Fatal(err)
			}
			if err := frames[i].Decode(f); err != nil {
				t.Fatal(err)
			}
		}
		if frames[0].Nodes[0] != wire.TypeBankState {
			t.Fatalf("%s: the restored monitor checkpointed bank frame type 0x%02x", g.file, frames[0].Nodes[0])
		}
		sameFrameDecisions(t, g.file, frames[0], frames[1])
		if g.steps == 0 && (!bytes.Equal(frames[0].Machine, frames[1].Machine) || !bytes.Equal(frames[0].Nodes, frames[1].Nodes)) {
			t.Fatalf("%s: restored before time 0, the monitor and its twin checkpoint different frames", g.file)
		}
		if len(frames[0].Nodes)*3 > len(c.Nodes) {
			t.Fatalf("%s: v2 bank frame %d bytes, v1 was %d", g.file, len(frames[0].Nodes), len(c.Nodes))
		}
	}
}

// TestStoredGenerationsSurviveBufferReuse pins the ownership contract of
// CheckpointStore.Save from the monitor's side: every generation is
// encoded into one buffer, so a store must hold copies — and
// MemCheckpoints does. Four generations from one monitor — three bases,
// each after steps that charged messages, and a delta on the third — and
// everything the store retains of them (the two newest bases and what
// follows) read back after all four were written, intact and restorable.
func TestStoredGenerationsSurviveBufferReuse(t *testing.T) {
	for _, conc := range []bool{false, true} {
		store := MemCheckpoints()
		cfg := Config{Nodes: 64, K: 4, Seed: 9, Concurrent: conc, Checkpoint: Checkpoint{Store: store}}
		mon, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		wr := rng.New(5, 5)
		vals := make([]int64, cfg.Nodes)
		var written [][]byte // what Load returned right after generation i+1 was saved
		var steps []int64
		for gen := 1; gen <= 4; gen++ {
			for s := 0; s < 10*gen && gen < 4; s++ { // nothing moves before the fourth: a delta
				ckptWalk(wr, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatal(err)
				}
			}
			if g, err := mon.Checkpoint(context.Background()); err != nil || g != uint64(gen) {
				t.Fatalf("checkpoint %d: generation %d, %v", gen, g, err)
			}
			_, frame, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			written = append(written, frame)
			steps = append(steps, mon.Stats().Steps)
		}
		if st := mon.CheckpointStats(); st.Bases != 3 || st.Deltas != 1 {
			t.Fatalf("concurrent=%v: %d bases and %d deltas, want 3 and 1", conc, st.Bases, st.Deltas)
		}
		if bytes.Equal(written[0], written[1]) || bytes.Equal(written[1], written[2]) || bytes.Equal(written[2], written[3]) {
			t.Fatal("the generations do not differ; the test would pass on aliased frames")
		}
		// Read the generations back newest first: overwriting one with junk
		// makes Load fall back to the one before it — down to the older of
		// the two bases the store keeps.
		for gen := 4; gen >= 2; gen-- {
			g, loaded, err := store.Load()
			if err != nil || g != uint64(gen) {
				t.Fatalf("concurrent=%v: Load = generation %d, %v; want %d", conc, g, err, gen)
			}
			if !bytes.Equal(loaded, written[gen-1]) {
				t.Fatalf("concurrent=%v: stored generation %d changed after later generations were encoded", conc, gen)
			}
			frames, err := wire.SplitCheckpointChain(loaded)
			if err != nil || len(frames) != 1+gen/4 {
				t.Fatalf("concurrent=%v: generation %d loads as %d frames, %v", conc, gen, len(frames), err)
			}
			one := MemCheckpoints()
			for i, frame := range frames {
				if err := one.Save(g-uint64(len(frames)-1-i), frame); err != nil {
					t.Fatal(err)
				}
			}
			back, err := Restore(one, Config{Nodes: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, Concurrent: conc})
			if err != nil {
				t.Fatalf("concurrent=%v: generation %d does not restore: %v", conc, gen, err)
			}
			if back.Stats().Steps != steps[gen-1] {
				t.Fatalf("concurrent=%v: generation %d restored at step %d, was taken at %d", conc, gen, back.Stats().Steps, steps[gen-1])
			}
			back.Close()
			if err := store.Save(g, []byte("junk")); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := store.Load(); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("concurrent=%v: Load with every kept generation overwritten: %v, want ErrCorruptCheckpoint (generation 1 is not kept)", conc, err)
		}
	}
}

// parentAtFrame and parentAfter200 are the ledgers a monitor restored from either v2
// fixture holds at the frame — the fixture's own — and 200 steps later.
const (
	parentAtFrame  = "{3536 0 4953}/{17680 0 29210} {{178 0 796} {324 0 459} {3034 0 3698}}/{{890 0 6626} {1620 0 2505} {15170 0 20079}}"
	parentAfter200 = "{6276 0 7143}/{31380 0 44913} {{346 0 1649} {782 0 1044} {5148 0 4450}}/{{1730 0 13880} {3910 0 5703} {25740 0 25330}}"
)

// parentFrameCfg is the state the committed v2 fixtures were taken in: a
// monitor of this configuration after parentFrameSteps goldenWalk steps —
// all 48 nodes start level, so the walk keeps violating filters on both
// sides of the boundary.
var parentFrameCfg = Config{Nodes: 48, K: 5, Seed: 21}

const parentFrameSteps = 120

// runToParentFrame builds a monitor of parentFrameCfg on the chosen engine
// and walks it to the fixtures' step; the walk is returned to continue.
func runToParentFrame(t *testing.T, concurrent bool, store CheckpointStore) (*Monitor, func([]int64), []int64) {
	t.Helper()
	cfg := parentFrameCfg
	cfg.Concurrent, cfg.Checkpoint = concurrent, Checkpoint{Store: store}
	mon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Close)
	walk, vals := goldenWalk(), make([]int64, cfg.Nodes)
	for s := 0; s < parentFrameSteps; s++ {
		walk(vals)
		if _, err := mon.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	return mon, walk, vals
}

// checkpointFrame checkpoints mon and returns the envelope its store holds.
func checkpointFrame(t *testing.T, mon *Monitor, store CheckpointStore) wire.Checkpoint {
	t.Helper()
	if _, err := mon.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, frame, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		t.Fatal(err)
	}
	return c
}

// restoreParentFrame restores a committed v2 fixture — an envelope whose
// bank frame carries the generator column monitors wrote while every node
// drew its coins from a generator of its own — and runs the monitor against
// a twin that never stopped for 200 steps: reports and stats, and the
// restored monitor's ledger against the recorded ones (the frame's history
// was priced at k+1 executions a reset; see goldenV1). The column is read
// past: the frame the restored monitor then saves has none, and is smaller
// than the fixture's bank frame by those 8 bytes a node at least. It
// returns the fixture's bank frame, decoded.
func restoreParentFrame(t *testing.T, file string, concurrent bool, atFrame, after200 string) wire.BankState {
	t.Helper()
	frame, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		t.Fatal(err)
	}
	var bs wire.BankState
	if err := bs.Decode(c.Nodes); err != nil {
		t.Fatal(err)
	}
	if !bs.Gens {
		t.Fatalf("%s carries no generator column; it tests nothing", file)
	}
	old, resaved := MemCheckpoints(), MemCheckpoints()
	if err := old.Save(c.Gen, frame); err != nil {
		t.Fatal(err)
	}
	cfg := parentFrameCfg
	cfg.Concurrent, cfg.Checkpoint = concurrent, Checkpoint{Store: resaved}
	restored, err := Restore(old, cfg)
	if err != nil {
		t.Fatalf("%s: restore: %v", file, err)
	}
	defer restored.Close()
	var again wire.BankState
	if back := checkpointFrame(t, restored, resaved); again.Decode(back.Nodes) != nil || again.Gens || len(back.Nodes) > len(c.Nodes)-8*cfg.Nodes {
		t.Fatalf("%s: restored and saved again, the bank frame is %d bytes (generator column: %v), the fixture's %d", file, len(back.Nodes), again.Gens, len(c.Nodes))
	}
	twin, walk, vals := runToParentFrame(t, concurrent, nil)
	sameDecisions(t, file+" at the frame", restored, twin, atFrame)
	for s := 0; s < 200; s++ {
		walk(vals)
		want, err := twin.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(want, got) {
			t.Fatalf("%s step %d: report %v, twin %v", file, s, got, want)
		}
		if restored.Stats() != twin.Stats() {
			t.Fatalf("%s step %d: stats diverged: %+v, twin %+v", file, s, restored.Stats(), twin.Stats())
		}
	}
	sameDecisions(t, file+" after 200 steps", restored, twin, after200)
	if twin.Stats().Resets < 20 {
		t.Fatalf("workload too calm: %+v", twin.Stats())
	}
	return bs
}

// TestRestoreParentConcurrentFrame restores testdata/v2_conc_viol.ckpt —
// written by the concurrent engine at the last commit whose bank kept an
// 8-byte violation stamp per node and persisted it, with the WasTop and
// Extracted flag bits, in every frame (restoreParentFrame). A checkpoint is
// taken between steps and all three are only read inside the step that
// wrote them, so what the frame carries of them is accepted and dropped.
func TestRestoreParentConcurrentFrame(t *testing.T) {
	bs := restoreParentFrame(t, "v2_conc_viol.ckpt", true, parentAtFrame, parentAfter200)
	stamps, dead := 0, byte(0)
	for i := range bs.ViolStep {
		if bs.ViolStep[i] != -1 {
			stamps++
		}
		dead |= bs.Flags[i] &^ wire.FlagNodeInTop
	}
	if stamps == 0 || dead != wire.FlagNodeWasTop|wire.FlagNodeExtracted {
		t.Fatalf("fixture carries %d violation stamps and dead flag bits 0x%02x; it tests nothing", stamps, dead)
	}
}

// TestRestoreParentSequentialFrame is the same for testdata/v2_seq.ckpt,
// the sequential engine's frame of the same state: live state and the
// generator column, nothing else.
func TestRestoreParentSequentialFrame(t *testing.T) {
	restoreParentFrame(t, "v2_seq.ckpt", false, parentAtFrame, parentAfter200)
}

// TestBankFrameIsOneFrame pins what the sequential engine writes and that
// the concurrent engine writes the same: testdata/v2_seq.ckpt is the sealed
// envelope the sequential engine wrote for this seed and trace while it
// still kept its own node side and its own frame writer — reset with k+1
// executions, and gave every node a generator: what this build writes but
// for the ledger that history left (one byte of ledger varints less) and
// the generator column, 8 bytes a node; and the concurrent engine's bank
// section — live state only, no violation stamps, no flag but membership —
// is the sequential engine's.
func TestBankFrameIsOneFrame(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "v2_seq.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	seqStore, concStore := MemCheckpoints(), MemCheckpoints()
	seq, _, _ := runToParentFrame(t, false, seqStore)
	conc, _, _ := runToParentFrame(t, true, concStore)
	seqFrame := checkpointFrame(t, seq, seqStore)
	var recorded wire.Checkpoint
	if err := recorded.Decode(want); err != nil {
		t.Fatal(err)
	}
	sameFrameDecisions(t, "the sequential engine's envelope and the recorded one", seqFrame, recorded)
	if _, got, _ := seqStore.Load(); len(got) != 639-8*parentFrameCfg.Nodes || len(want) != 640 {
		t.Fatalf("the sequential engine's envelope is %d bytes, the recorded one %d; want %d and 640", len(got), len(want), 639-8*parentFrameCfg.Nodes)
	}
	concFrame := checkpointFrame(t, conc, concStore)
	if !bytes.Equal(concFrame.Nodes, seqFrame.Nodes) || !bytes.Equal(concFrame.Machine, seqFrame.Machine) {
		t.Fatal("the concurrent engine's machine and bank sections differ from the sequential engine's")
	}
}
