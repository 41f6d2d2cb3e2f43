package topk

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// The checkpoint fixtures under testdata/. seq.ckpt and seq_eps.ckpt are
// the envelopes a monitor of parentFrameCfg — exact, and at ε = 0.05 —
// saves after parentFrameSteps goldenWalk steps; seq_chain.ckpt is what
// MemCheckpoints' Load hands over after runToChain: a base and three
// deltas, one of them spanning a reset. They were recorded through
// Monitor.Checkpoint by the build whose bank frame is the value column
// alone, and are the one dialect this build writes and reads.
//
// retiredFrames are the envelopes of monitors that wrote another dialect
// of the bank frame: each is refused with a typed error, not upgraded.
// rawKeyedFrames are refused the same way (TestRestoreRefusesDistinctModeFrames).
var retiredFrames = []struct {
	file string
	cfg  Config
	want error
}{
	// The v1 frame, nine fields a node: ErrUnknownType.
	{"v1_seq_exact.ckpt", Config{Nodes: 48, K: 5, Seed: 21}, wire.ErrUnknownType},
	// A generator column after the keys: ErrMalformed.
	{"v2_seq.ckpt", parentFrameCfg, wire.ErrMalformed},
	// Violation stamps and the WasTop and Extracted bits, behind a generator
	// column: ErrMalformed.
	{"v2_conc_viol.ckpt", Config{Nodes: 48, K: 5, Seed: 21}, wire.ErrMalformed},
	// The previous dialect — the installed bounds, and member, violation
	// and order sections beside the keys — as the builds before this one
	// wrote the states of seq.ckpt, seq_eps.ckpt and seq_chain.ckpt (the
	// chain over the quiet trace without its stir): ErrMalformed.
	{"v3_seq.ckpt", parentFrameCfg, wire.ErrMalformed},
	{"v3_seq_eps.ckpt", Config{Nodes: 48, K: 5, Seed: 21, Epsilon: 0.05}, wire.ErrMalformed},
	{"v3_seq_chain.ckpt", chainFrameCfg, wire.ErrMalformed},
	// The same dialect under the retired concurrent engine's fingerprint,
	// which is refused before its bank section is read: ErrMalformed.
	{"v3_conc.ckpt", parentFrameCfg, wire.ErrMalformed},
	// The dialect after it — a column of keys, each its node's value with
	// the tie-break injection, where values are — as the builds before this
	// one wrote seq.ckpt, seq_eps.ckpt and seq_chain.ckpt: ErrMalformed.
	{"v4_seq.ckpt", parentFrameCfg, wire.ErrMalformed},
	{"v4_seq_eps.ckpt", Config{Nodes: 48, K: 5, Seed: 21, Epsilon: 0.05}, wire.ErrMalformed},
	{"v4_seq_chain.ckpt", chainFrameCfg, wire.ErrMalformed},
}

// goldenWalk is the input the fixtures were taken under: every node starts
// at 1000 and takes ckptWalk steps drawn from one generator.
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

// TestRestoreGoldenV1Frames pins that the frames of retired dialects are
// refused, not upgraded: each committed fixture, handed over as a store's
// Load hands it over, is answered with a *RestoreError wrapping the wire
// error of its dialect, and nothing is saved to the store it restores
// from, which is also the one it was asked to checkpoint to.
func TestRestoreGoldenV1Frames(t *testing.T) {
	for _, r := range retiredFrames {
		loaded, err := os.ReadFile(filepath.Join("testdata", r.file))
		if err != nil {
			t.Fatal(err)
		}
		frames, err := wire.SplitCheckpointChain(loaded)
		if err != nil || len(frames) == 0 {
			t.Fatalf("%s: %d frames, %v", r.file, len(frames), err)
		}
		gen := uint64(len(frames)) // the fixtures' chains start at generation 1
		store := &recordingStore{inner: rawStore{gen, loaded}}
		cfg := r.cfg
		cfg.Checkpoint = Checkpoint{Store: store, Every: 1}
		m, err := Restore(store, cfg)
		var re *RestoreError
		if m != nil || !errors.As(err, &re) || !errors.Is(err, r.want) {
			t.Fatalf("%s: Restore returned %v, %v; want a *RestoreError wrapping %v", r.file, m, err, r.want)
		}
		if store.tries != 0 {
			t.Fatalf("%s: the refused restore tried %d saves", r.file, store.tries)
		}
	}
}

// rawKeyedFrames are what monitors of the raw-value key domain — keys that
// were the observations themselves, not the tie-break injection — saved,
// recorded at commit 3c78413, the last build that had that domain: a
// sequential chain of a base and a delta over newQuietTrace, and a
// networked base (over two loopback peers). cfg is the configuration they
// were taken under, less that domain and the transport.
var rawKeyedFrames = []struct {
	file string
	cfg  Config
	net  bool
}{
	{"distinct_seq_chain.ckpt", Config{Nodes: 256, K: 4, Seed: 11}, false},
	{"distinct_net.ckpt", Config{Nodes: 48, K: 5, Seed: 21}, true},
}

// TestRestoreRefusesDistinctModeFrames pins that a frame of the raw-value
// key domain is refused, never read as tie-break keys — which would
// silently corrupt the order. Handed over as a store's Load would hand it,
// each recorded fixture is answered with a *RestoreError wrapping
// wire.ErrMalformed (the fingerprint's flags byte is 0x01, a bit this
// build does not know), and nothing is saved to the store it restores
// from, which is also the one it was asked to checkpoint to. The in-memory
// store's own validation refuses the fixture's frames too: Load finds no
// valid base among them.
func TestRestoreRefusesDistinctModeFrames(t *testing.T) {
	for _, r := range rawKeyedFrames {
		loaded, err := os.ReadFile(filepath.Join("testdata", r.file))
		if err != nil {
			t.Fatal(err)
		}
		frames, err := wire.SplitCheckpointChain(loaded)
		if err != nil || len(frames) == 0 {
			t.Fatalf("%s: %d frames, %v", r.file, len(frames), err)
		}
		gen := uint64(len(frames)) // the fixtures' chains start at generation 1
		store := &recordingStore{inner: rawStore{gen, loaded}}
		cfg := r.cfg
		if r.net {
			cfg.Transport = Loopback(2)
		}
		cfg.Checkpoint = Checkpoint{Store: store, Every: 1}
		m, err := Restore(store, cfg)
		var re *RestoreError
		if m != nil || !errors.As(err, &re) || !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: Restore returned %v, %v; want a *RestoreError wrapping wire.ErrMalformed", r.file, m, err)
		}
		if g, got, err := store.Load(); store.tries != 0 || err != nil || g != gen || !bytes.Equal(got, loaded) {
			t.Fatalf("%s: the refused restore tried %d saves; the store holds generation %d (%v), chain intact: %v", r.file, store.tries, g, err, bytes.Equal(got, loaded))
		}
		mem := MemCheckpoints()
		for i, frame := range frames {
			if err := mem.Save(uint64(i+1), frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := mem.Load(); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: the in-memory store loaded the frames: %v, want ErrCorruptCheckpoint", r.file, err)
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
	store := MemCheckpoints()
	cfg := Config{Nodes: 64, K: 4, Seed: 9, Checkpoint: Checkpoint{Store: store}}
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
		t.Fatalf("%d bases and %d deltas, want 3 and 1", st.Bases, st.Deltas)
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
			t.Fatalf("Load = generation %d, %v; want %d", g, err, gen)
		}
		if !bytes.Equal(loaded, written[gen-1]) {
			t.Fatalf("stored generation %d changed after later generations were encoded", gen)
		}
		frames, err := wire.SplitCheckpointChain(loaded)
		if err != nil || len(frames) != 1+gen/4 {
			t.Fatalf("generation %d loads as %d frames, %v", gen, len(frames), err)
		}
		one := MemCheckpoints()
		for i, frame := range frames {
			if err := one.Save(g-uint64(len(frames)-1-i), frame); err != nil {
				t.Fatal(err)
			}
		}
		back, err := Restore(one, Config{Nodes: cfg.Nodes, K: cfg.K, Seed: cfg.Seed})
		if err != nil {
			t.Fatalf("generation %d does not restore: %v", gen, err)
		}
		if back.Stats().Steps != steps[gen-1] {
			t.Fatalf("generation %d restored at step %d, was taken at %d", gen, back.Stats().Steps, steps[gen-1])
		}
		back.Close()
		if err := store.Save(g, []byte("junk")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := store.Load(); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Load with every kept generation overwritten: %v, want ErrCorruptCheckpoint (generation 1 is not kept)", err)
	}
}

// parentFrameCfg is the state the recorded fixtures were taken in: a
// monitor of this configuration after parentFrameSteps goldenWalk steps —
// all 48 nodes start level, so the walk keeps violating filters on both
// sides of the boundary.
var parentFrameCfg = Config{Nodes: 48, K: 5, Seed: 21}

const parentFrameSteps = 120

// runToParentFrame builds a monitor of cfg, checkpointing to store, and
// walks it to the fixtures' step; the walk is returned to continue.
func runToParentFrame(t *testing.T, cfg Config, store CheckpointStore) (*Monitor, func([]int64), []int64) {
	t.Helper()
	cfg.Checkpoint = Checkpoint{Store: store}
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

// sameSections fails unless two envelopes hold byte-identical machine and
// bank sections.
func sameSections(t *testing.T, what string, got, want wire.Checkpoint) {
	t.Helper()
	if !bytes.Equal(got.Machine, want.Machine) || !bytes.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: the machine and bank sections differ (%d and %d bytes, want %d and %d)", what, len(got.Machine), len(got.Nodes), len(want.Machine), len(want.Nodes))
	}
}

// restoreParentFrame restores a recorded fixture of cfg, saves it again —
// the machine and bank sections must come back byte for byte — and runs
// the restored monitor against a twin that never stopped for 200 steps:
// the same report and stats at every step, and the same ledger, by phase,
// at the frame and 200 steps later.
func restoreParentFrame(t *testing.T, file string, cfg Config) {
	t.Helper()
	frame, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		t.Fatal(err)
	}
	old, resaved := MemCheckpoints(), MemCheckpoints()
	if err := old.Save(c.Gen, frame); err != nil {
		t.Fatal(err)
	}
	live := cfg
	live.Checkpoint = Checkpoint{Store: resaved}
	restored, err := Restore(old, live)
	if err != nil {
		t.Fatalf("%s: restore: %v", file, err)
	}
	defer restored.Close()
	sameSections(t, file+", restored and saved again", checkpointFrame(t, restored, resaved), c)
	twin, walk, vals := runToParentFrame(t, cfg, nil)
	sameLedgers(t, file+" at the frame", restored, twin)
	atFrame := twin.Stats()
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
		if !slices.Equal(want, got) {
			t.Fatalf("%s step %d: report %v, twin %v", file, s, got, want)
		}
		if restored.Stats() != twin.Stats() {
			t.Fatalf("%s step %d: stats diverged: %+v, twin %+v", file, s, restored.Stats(), twin.Stats())
		}
	}
	sameLedgers(t, file+" after 200 steps", restored, twin)
	if twin.Stats().Resets == atFrame.Resets {
		t.Fatalf("%s: workload too calm: no reset in the 200 steps, %+v", file, twin.Stats())
	}
}

// TestRestoreParentConcurrentFrame pins what became of the retired
// concurrent engine's frame: testdata/v3_conc.ckpt, written under
// wire.EngineConc in the state of seq.ckpt, is refused, though it holds the
// machine section and the keys of v4_seq.ckpt, the sequential engine's
// frame of that state a dialect later.
func TestRestoreParentConcurrentFrame(t *testing.T) {
	conc, err := os.ReadFile(filepath.Join("testdata", "v3_conc.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := os.ReadFile(filepath.Join("testdata", "v4_seq.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		t.Fatal(err)
	}
	hdr := len(wire.BankHeader{N: parentFrameCfg.Nodes, Hi: parentFrameCfg.Nodes}.Append(nil))
	if !bytes.Contains(conc, c.Machine) || !bytes.Contains(conc, c.Nodes[hdr:]) {
		t.Fatal("v3_conc.ckpt does not hold the machine section and the keys of v4_seq.ckpt")
	}
	m, err := Restore(rawStore{c.Gen, conc}, parentFrameCfg)
	var re *RestoreError
	if m != nil || !errors.As(err, &re) || !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("v3_conc.ckpt: Restore returned %v, %v; want a *RestoreError wrapping wire.ErrMalformed", m, err)
	}
}

// TestRestoreParentSequentialFrame is the same for the sequential engine's
// frames, exact (testdata/seq.ckpt) and at ε = 0.05 (testdata/seq_eps.ckpt).
func TestRestoreParentSequentialFrame(t *testing.T) {
	restoreParentFrame(t, "seq.ckpt", parentFrameCfg)
	cfg := parentFrameCfg
	cfg.Epsilon = 0.05
	restoreParentFrame(t, "seq_eps.ckpt", cfg)
}

// TestBankFrameIsOneFrame pins what the in-process engine writes: the
// envelope it saves in the fixtures' state is testdata/seq.ckpt byte for
// byte, and testdata/v4_seq.ckpt, which the builds before it wrote in that
// state, holds the same machine section and a column of the keys this
// build's values are under the tie-break injection — in more bytes: the
// bank frame lost each key's id part, which its position in the column
// gives, and nothing else.
func TestBankFrameIsOneFrame(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seq.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	store := MemCheckpoints()
	mon, _, _ := runToParentFrame(t, parentFrameCfg, store)
	sections := checkpointFrame(t, mon, store)
	if _, got, _ := store.Load(); !bytes.Equal(got, want) {
		t.Fatalf("the envelope saved in the state of seq.ckpt is %d bytes and not the recorded %d", len(got), len(want))
	}
	frame, err := os.ReadFile(filepath.Join("testdata", "v4_seq.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var old wire.Checkpoint
	if err := old.Decode(frame); err != nil {
		t.Fatal(err)
	}
	var bs wire.BankState
	if err := bs.Decode(sections.Nodes); err != nil {
		t.Fatal(err)
	}
	n := parentFrameCfg.Nodes
	codec := order.NewCodec(n)
	hdr := len(wire.BankHeader{N: n, Hi: n}.Append(nil))
	keys := bytes.Clone(old.Nodes[:hdr-1]) // the header, less the keys dialect's flags byte
	if !bytes.Equal(keys, sections.Nodes[:hdr-1]) || old.Nodes[hdr-1] != 0x06 {
		t.Fatal("v4_seq.ckpt's bank header is not this build's under the keys dialect's flags")
	}
	for id, v := range bs.Vals {
		keys = wire.AppendVarint(keys, int64(codec.Encode(v, id)))
	}
	if !bytes.Equal(old.Machine, sections.Machine) || !bytes.Equal(old.Nodes[hdr:], keys[hdr-1:]) || len(old.Nodes) <= len(sections.Nodes) {
		t.Fatal("v4_seq.ckpt does not hold this build's machine section and its values' keys, in more bytes")
	}
}

// chainFrameCfg is the monitor the recorded chain (testdata/seq_chain.ckpt)
// was taken from.
var chainFrameCfg = Config{Nodes: 256, K: 4, Seed: 11}

// runToChain drives a monitor of chainFrameCfg, checkpointing to store
// every checkpointEvery steps when it is not nil, over the trace the chain
// was recorded on: a dense first step and 15 sparse ones, which charge
// nothing but the tenth — a stir, which costs a violation and a reset.
func runToChain(t *testing.T, store CheckpointStore, checkpointEvery int) *Monitor {
	t.Helper()
	cfg := chainFrameCfg
	cfg.Checkpoint = Checkpoint{Store: store, Every: checkpointEvery}
	mon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Close)
	tr := newQuietTrace(cfg.Nodes, 5)
	if _, err := mon.Observe(tr.vals); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 16; s++ {
		ids, vals := tr.step(5)
		if s == 10 {
			ids, vals = tr.stir(3)
		}
		if _, err := mon.ObserveDelta(ids, vals); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

// TestRestoreRecordedChain restores testdata/seq_chain.ckpt — a base and
// three deltas, the last two of them across the reset a stir costs, as the
// store's Load hands them over, and what this build writes for them to the
// byte — into a monitor that agrees with a twin that never stopped on
// every count and statistic, and whose first save, a base, holds the
// machine and bank sections of the twin's base at the same step, byte for
// byte.
func TestRestoreRecordedChain(t *testing.T) {
	loaded, err := os.ReadFile(filepath.Join("testdata", "seq_chain.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	chainStore := MemCheckpoints()
	runToChain(t, chainStore, 4)
	if _, written, err := chainStore.Load(); err != nil || !bytes.Equal(written, loaded) {
		t.Fatalf("the chain this build writes is %d bytes (%v) and not the recorded %d", len(written), err, len(loaded))
	}
	frames, err := wire.SplitCheckpointChain(loaded)
	if err != nil || len(frames) < 4 {
		t.Fatalf("the fixture holds %d frames (%v), want a base and at least three deltas", len(frames), err)
	}
	gen, _, err := wire.PeekCheckpointDelta(frames[len(frames)-1])
	if err != nil {
		t.Fatal(err)
	}
	cfg := chainFrameCfg
	store := MemCheckpoints()
	cfg.Checkpoint = Checkpoint{Store: store}
	restored, err := Restore(rawStore{gen, loaded}, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()
	twinStore := MemCheckpoints()
	twin := runToChain(t, twinStore, 0)
	sameLedgers(t, "the monitor restored through the chain against its twin", restored, twin)
	got, want := checkpointFrame(t, restored, store), checkpointFrame(t, twin, twinStore)
	sameSections(t, "the restored monitor's first base against the twin's", got, want)
	if st := restored.CheckpointStats(); st.Bases != 1 || st.Deltas != 0 || st.LastGen != gen+1 {
		t.Fatalf("the restored monitor's first save: %+v, want a base of generation %d", st, gen+1)
	}
}
