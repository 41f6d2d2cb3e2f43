package topk

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/coord"
	"repro/internal/rng"
	"repro/internal/wire"
)

// ckptWalk drives a deterministic random walk shared by a monitor pair.
func ckptWalk(r *rng.RNG, vals []int64) {
	for i := range vals {
		vals[i] += int64(r.Intn(9)) - 4
	}
}

// TestCheckpointRestoreBitIdentical is the determinism pin of the
// checkpoint tentpole: a sequential or concurrent monitor restored from
// an idle-point checkpoint resumes bit-identically — reports, message
// counts, charged bytes, per-phase ledgers, stats, and the randomness
// streams driving them — to an uninterrupted twin, at ε=0 and ε>0.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		for _, eps := range []float64{0, 0.05} {
			cfg := Config{Nodes: 24, K: 4, Seed: 11, Epsilon: eps, Concurrent: concurrent}
			twin, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()

			store := MemCheckpoints()
			live := cfg
			live.Checkpoint = Checkpoint{Store: store, Every: 5}
			mon, err := New(live)
			if err != nil {
				t.Fatal(err)
			}

			wr := rng.New(99, 1)
			vals := make([]int64, cfg.Nodes)
			for step := 0; step < 37; step++ {
				ckptWalk(wr, vals)
				if _, err := twin.Observe(vals); err != nil {
					t.Fatal(err)
				}
				if _, err := mon.Observe(vals); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := mon.Checkpoint(context.Background())
			if err != nil {
				t.Fatalf("conc=%v eps=%v: checkpoint: %v", concurrent, eps, err)
			}
			if st := mon.CheckpointStats(); st.LastGen != gen || st.Saves < 1 || st.LastErr != nil {
				t.Fatalf("conc=%v eps=%v: stats %+v after gen %d", concurrent, eps, st, gen)
			}
			mon.Close() // the "crash": the restored monitor must not need it

			restored, err := Restore(store, live)
			if err != nil {
				t.Fatalf("conc=%v eps=%v: restore: %v", concurrent, eps, err)
			}
			defer restored.Close()
			if st := restored.CheckpointStats(); st.LastGen != gen {
				t.Fatalf("conc=%v eps=%v: restored LastGen %d, want %d", concurrent, eps, st.LastGen, gen)
			}

			for step := 0; step < 50; step++ {
				ckptWalk(wr, vals)
				want, err := twin.Observe(vals)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.Observe(vals)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(want, got) {
					t.Fatalf("conc=%v eps=%v step %d: report %v, twin %v", concurrent, eps, step, got, want)
				}
			}
			if twin.Counts() != restored.Counts() || twin.Bytes() != restored.Bytes() {
				t.Fatalf("conc=%v eps=%v: ledgers diverged: twin %v/%v, restored %v/%v",
					concurrent, eps, twin.Counts(), twin.Bytes(), restored.Counts(), restored.Bytes())
			}
			if twin.Phases() != restored.Phases() || twin.BytesByPhase() != restored.BytesByPhase() {
				t.Fatalf("conc=%v eps=%v: phase ledgers diverged", concurrent, eps)
			}
			if twin.Stats() != restored.Stats() {
				t.Fatalf("conc=%v eps=%v: stats diverged: twin %+v, restored %+v",
					concurrent, eps, twin.Stats(), restored.Stats())
			}
		}
	}
	// The walk above charges messages at every step, so every frame of it
	// is a base; the same pin where the restore lands on a base and its
	// deltas, on every engine.
	restoreThroughChain(t)
}

// ckptEngines enumerates one configuration per engine for the chaos
// suites. The returned Config carries no Transport; net configurations
// get a fresh Loopback per construction via the transport flag.
var ckptEngines = []struct {
	name string
	net  bool // needs a fresh Loopback transport per construction
	mut  func(*Config)
}{
	{"seq", false, func(*Config) {}},
	{"conc", false, func(c *Config) { c.Concurrent = true }},
	{"net", true, func(*Config) {}},
	{"shards", false, func(c *Config) { c.Tree = star(3) }},
	{"tree", false, func(c *Config) { c.Tree = Tree{Branch: 2, Depth: 2} }},
}

// TestCheckpointCrashRestartChaos is the chaos pin: on every engine,
// kill the coordinator at a seeded random step (abandoning the process
// state mid-run, checkpoints included), restore from the store, and
// require the restored monitor to report oracle-exact top-k sets from
// the first post-restore step on — never a hang, never a panic, never
// stale data.
func TestCheckpointCrashRestartChaos(t *testing.T) {
	for _, eng := range ckptEngines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			// Even trials walk every node every step, so every frame is a
			// base; odd ones run the quiet sparse trace over more nodes, so
			// the kill lands among the deltas of a chain.
			inChain := 0
			for trial := uint64(0); trial < 8; trial++ {
				quiet := trial%2 == 1
				cfg := Config{Nodes: 24, K: 4, Seed: 7 + trial}
				if quiet {
					cfg.Nodes = 256
				}
				eng.mut(&cfg)
				store := MemCheckpoints()
				cfg.Checkpoint = Checkpoint{Store: store, Every: 3}
				if eng.net {
					cfg.Transport = Loopback(3)
				}
				mon, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}

				tr := rng.New(1000+trial, 5)
				wr := rng.New(2000+trial, 7)
				qt := newQuietTrace(cfg.Nodes, 3000+trial)
				vals := make([]int64, cfg.Nodes)
				if quiet {
					vals = qt.vals
				}
				// next moves the input one step and returns the sparse
				// call that says so, or nil ids for a dense one.
				next := func(step int) ([]int, []int64) {
					switch {
					case !quiet:
						ckptWalk(wr, vals)
					case step > 0 && step%11 == 10:
						return qt.stir(step%5, int64(step))
					case step > 0:
						return qt.step(4)
					}
					return nil, vals
				}
				killStep := 2 + tr.Intn(30)
				for step := 0; step < killStep; step++ {
					if ids, moved := next(step); ids == nil {
						_, err = mon.Observe(moved)
					} else {
						_, err = mon.ObserveDelta(ids, moved)
					}
					if err != nil {
						t.Fatalf("trial %d step %d: %v", trial, step, err)
					}
				}
				deltas := mon.CheckpointStats().Deltas
				if deltas > 0 {
					inChain++
				}
				// The crash: the old coordinator is abandoned mid-run.
				// (Close at cleanup only reclaims test goroutines; the
				// restored monitor must never depend on it.)
				t.Cleanup(mon.Close)

				if eng.net {
					cfg.Transport = Loopback(3)
				}
				restored, err := Restore(store, cfg)
				if errors.Is(err, ErrNoCheckpoint) {
					// Killed before the first checkpoint boundary: a fresh
					// start is the documented recovery.
					if eng.net {
						cfg.Transport = Loopback(3)
					}
					restored, err = New(cfg)
				}
				if err != nil {
					t.Fatalf("trial %d (kill at %d, %d deltas saved): restore: %v", trial, killStep, deltas, err)
				}
				defer restored.Close()

				// Dense from here on: the steps since the last frame are
				// caught up on by the first call.
				for step := 0; step < 25; step++ {
					next(killStep + step)
					got, err := restored.Observe(vals)
					if err != nil {
						t.Fatalf("trial %d post-restore step %d: %v", trial, step, err)
					}
					want, err := Oracle(vals, cfg.K)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(want, got) {
						t.Fatalf("trial %d (kill at %d) post-restore step %d: report %v, oracle %v",
							trial, killStep, step, got, want)
					}
				}
				if h := restored.Health(); h.Terminal != nil || h.Degraded {
					t.Fatalf("trial %d: restored monitor unhealthy: %+v", trial, h)
				}
			}
			if inChain < 2 {
				t.Fatalf("%d of 8 kills landed in a chain with deltas; the quiet trials exercise nothing", inChain)
			}
		})
	}
}

// TestCheckpointMidWriteCrash pins the torn-write path end to end: the
// store dies mid-Save (persisting only a prefix of the frame), and
// Restore must fall back to the previous intact generation — never
// restore from the torn frame — and still re-converge to the oracle.
func TestCheckpointMidWriteCrash(t *testing.T) {
	for _, eng := range ckptEngines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			cfg := Config{Nodes: 24, K: 4, Seed: 21}
			eng.mut(&cfg)
			inner := ckpt.NewMem()
			faulty := ckpt.NewFaulty(inner, ckpt.FaultPlan{KillAt: 3, TornBytes: 11})
			cfg.Checkpoint = Checkpoint{Store: faulty, Every: 2}
			if eng.net {
				cfg.Transport = Loopback(3)
			}
			mon, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			wr := rng.New(31, 9)
			vals := make([]int64, cfg.Nodes)
			for step := 0; !faulty.Killed(); step++ {
				if step > 1000 {
					t.Fatal("fault plan never fired")
				}
				ckptWalk(wr, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatal(err)
				}
			}
			if st := mon.CheckpointStats(); st.LastErr == nil || !errors.Is(st.LastErr, ckpt.ErrKilled) {
				t.Fatalf("stats after kill: %+v", mon.CheckpointStats())
			}
			t.Cleanup(mon.Close)

			if eng.net {
				cfg.Transport = Loopback(3)
			}
			restored, err := Restore(inner, cfg)
			if err != nil {
				t.Fatalf("restore after torn write: %v", err)
			}
			defer restored.Close()
			// The torn generation 3 must have been skipped for intact 2.
			if st := restored.CheckpointStats(); st.LastGen != 2 {
				t.Fatalf("restored from generation %d, want fallback to 2", st.LastGen)
			}
			for step := 0; step < 20; step++ {
				ckptWalk(wr, vals)
				got, err := restored.Observe(vals)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Oracle(vals, cfg.K)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(want, got) {
					t.Fatalf("post-restore step %d: report %v, oracle %v", step, got, want)
				}
			}
		})
	}
	// That walk's frames are all bases; the same kill inside a chain.
	midWriteCrashInChain(t)
}

// TestRestoreRejects pins that Restore never rebuilds a monitor from a
// frame that does not match the configuration — and that the failure
// vocabulary is typed: *RestoreError for mismatches, the documented
// sentinels for store-level failures, *ConfigError for an invalid cfg.
func TestRestoreRejects(t *testing.T) {
	base := Config{Nodes: 8, K: 2, Seed: 3}
	store := MemCheckpoints()
	mon, err := New(Config{Nodes: 8, K: 2, Seed: 3, Checkpoint: Checkpoint{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{5, 1, 8, 2, 9, 3, 7, 4}
	if _, err := mon.Observe(vals); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	mon.Close()

	if _, err := Restore(nil, base); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := Restore(MemCheckpoints(), base); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: %v, want ErrNoCheckpoint", err)
	}

	corrupt := ckpt.NewMem()
	if err := corrupt.Save(1, []byte("not a checkpoint frame")); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(corrupt, base); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("corrupt-only store: %v, want ErrCorruptCheckpoint", err)
	}

	mismatches := []Config{
		{Nodes: 8, K: 2, Seed: 4},                   // seed
		{Nodes: 8, K: 2, Seed: 3, Concurrent: true}, // engine kind
		{Nodes: 8, K: 2, Seed: 3, Tree: star(2)},    // engine kind
		{Nodes: 9, K: 2, Seed: 3},                   // fingerprint in the machine frame
		{Nodes: 8, K: 3, Seed: 3},                   // fingerprint in the machine frame
		{Nodes: 8, K: 2, Seed: 3, Epsilon: 0.25},    // fingerprint in the machine frame
	}
	for i, bad := range mismatches {
		_, err := Restore(store, bad)
		if err == nil {
			t.Fatalf("case %d: mismatched config %+v accepted", i, bad)
		}
		var re *RestoreError
		if !errors.As(err, &re) {
			t.Fatalf("case %d: error %v is not a *RestoreError", i, err)
		}
	}

	var ce *ConfigError
	if _, err := Restore(store, Config{Nodes: 0, K: 1}); !errors.As(err, &ce) {
		t.Fatalf("invalid cfg: %v, want *ConfigError", err)
	}
}

// TestCheckpointAsync pins the composition with asynchronous ingestion:
// Checkpoint drains the queue first (the frame reflects every staged
// observation), auto-checkpoints run on the worker under the engine
// mutex, and a restored async monitor serves correct reports.
func TestCheckpointAsync(t *testing.T) {
	store := MemCheckpoints()
	cfg := Config{
		Nodes: 16, K: 3, Seed: 5,
		Ingest:     Ingest{QueueDepth: 16},
		Checkpoint: Checkpoint{Store: store, Every: 4},
	}
	mon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wr := rng.New(77, 3)
	vals := make([]int64, cfg.Nodes)
	for step := 0; step < 30; step++ {
		ckptWalk(wr, vals)
		if _, err := mon.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := mon.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("manual checkpoint returned generation 0")
	}
	// The drained checkpoint reflects all 30 steps: the restored monitor
	// reports the same top set the live one does after its barrier.
	want := mon.Top()
	mon.Close()

	restored, err := Restore(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Top(); !slices.Equal(want, got) {
		t.Fatalf("restored Top %v, want %v", got, want)
	}
	for step := 0; step < 20; step++ {
		ckptWalk(wr, vals)
		if _, err := restored.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantTop, err := Oracle(vals, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Top(); !slices.Equal(wantTop, got) {
		t.Fatalf("post-restore async Top %v, oracle %v", got, wantTop)
	}
}

// TestCheckpointCrashRestartSoak hammers the crash-restart cycle with
// concurrent producers under the race detector: an async monitor
// auto-checkpoints while four goroutines feed it, is abandoned at a
// random moment, and the next incarnation restores and keeps serving.
func TestCheckpointCrashRestartSoak(t *testing.T) {
	store := MemCheckpoints()
	cfg := Config{
		Nodes: 32, K: 4, Seed: 13,
		Ingest:     Ingest{QueueDepth: 32},
		Checkpoint: Checkpoint{Store: store, Every: 2},
	}
	for round := 0; round < 5; round++ {
		var mon *Monitor
		var err error
		if round == 0 {
			mon, err = New(cfg)
		} else {
			mon, err = Restore(store, cfg)
			if errors.Is(err, ErrNoCheckpoint) {
				mon, err = New(cfg)
			}
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				wr := rng.New(uint64(round*10+p), 15)
				vals := make([]int64, cfg.Nodes)
				for step := 0; step < 40; step++ {
					ckptWalk(wr, vals)
					if _, err := mon.Observe(vals); err != nil {
						t.Errorf("round %d producer %d: %v", round, p, err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		if _, err := mon.Checkpoint(context.Background()); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		mon.Close() // reclaim the worker; the store alone carries state over
	}
}

// TestRestoreRejectsStaleFilters pins the restore bugfix at the public
// boundary, on both engines that checkpoint node state: a well-formed,
// correctly checksummed checkpoint whose bank frame holds filters the
// algorithm cannot have installed — here an outsider whose value already
// left its filter, the state of a monitor that would go on serving a
// stale set — is a typed *RestoreError wrapping coord.ErrFilterState,
// while the frame as written restores.
func TestRestoreRejectsStaleFilters(t *testing.T) {
	for _, conc := range []bool{false, true} {
		store := MemCheckpoints()
		cfg := Config{Nodes: 8, K: 2, Seed: 3, Concurrent: conc, Checkpoint: Checkpoint{Store: store}}
		mon, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Observe([]int64{5, 1, 8, 2, 9, 3, 7, 4}); err != nil { // top: nodes 2 and 4
			t.Fatal(err)
		}
		gen, err := mon.Checkpoint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		mon.Close()
		cfg.Checkpoint = Checkpoint{}
		good, err := Restore(store, cfg)
		if err != nil {
			t.Fatalf("concurrent=%v: checkpoint as written rejected: %v", conc, err)
		}
		good.Close()

		_, frame, err := store.Load()
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
		// Outsider 1 above the installed midpoint; then a frame whose
		// bounds went stale instead of a key, and one flagging a member the
		// machine does not have.
		moved, stale, flagged := bs, bs, bs
		moved.Keys = append([]int64(nil), bs.Keys...)
		moved.Keys[1] = bs.BoundHi + 1
		stale.BoundLo, stale.BoundHi = bs.BoundLo+1<<30, bs.BoundHi+1<<30
		flagged.InTop = append([]bool(nil), bs.InTop...)
		flagged.InTop[7] = true
		flagged.Keys = append([]int64(nil), bs.Keys...)
		flagged.Keys[7] = bs.BoundLo
		for name, nodes := range map[string][]byte{
			"key moved":     moved.Append(nil),
			"bounds stale":  stale.Append(nil),
			"forged member": flagged.Append(nil),
		} {
			forged := c
			forged.Nodes = nodes
			store := MemCheckpoints()
			if err := store.Save(gen, forged.Append(nil)); err != nil {
				t.Fatal(err)
			}
			m, err := Restore(store, cfg)
			var re *RestoreError
			if !errors.As(err, &re) || !errors.Is(err, coord.ErrFilterState) {
				t.Fatalf("concurrent=%v %s: restore returned %v, want a *RestoreError wrapping coord.ErrFilterState", conc, name, err)
			}
			if m != nil {
				m.Close()
			}
		}
	}
}
