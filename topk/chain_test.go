package topk

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// quietTrace is the input of the chain tests: node i holds 1000·i give or
// take 40, so the top-k are the k highest ids with a gap no walk closes —
// after the first, dense, call every step moves a few nodes inside their
// filters and charges nothing, at ε = 0 and at 0.05 — until stir lifts a
// low node over everyone, which costs a violation and a reset.
type quietTrace struct {
	r    *rng.RNG
	vals []int64
	ids  []int
	out  []int64
}

func newQuietTrace(n int, seed uint64) *quietTrace {
	q := &quietTrace{r: rng.New(seed, 41), vals: make([]int64, n)}
	for i := range q.vals {
		q.vals[i] = 1000 * int64(i)
	}
	return q
}

// step moves changed nodes — one drawn from each of changed equal
// stretches of the id space, so they come out in order — and returns the
// sparse call that says so. It allocates nothing once its buffers are
// grown.
func (q *quietTrace) step(changed int) ([]int, []int64) {
	q.ids, q.out = q.ids[:0], q.out[:0]
	for j, n := 0, len(q.vals); j < changed; j++ {
		lo, hi := j*n/changed, (j+1)*n/changed
		id := lo + q.r.Intn(hi-lo)
		q.vals[id] = 1000*int64(id) + int64(q.r.Intn(81)) - 40
		q.ids, q.out = append(q.ids, id), append(q.out, q.vals[id])
	}
	return q.ids, q.out
}

// stir lifts node id over every other node, for good.
func (q *quietTrace) stir(id int, round int64) ([]int, []int64) {
	q.vals[id] = 1000*int64(len(q.vals)) + 1000*round
	return []int{id}, []int64{q.vals[id]}
}

// recordingStore keeps a copy of every frame saved through it, in order,
// and fails the saves it is told to.
type recordingStore struct {
	inner  CheckpointStore
	frames [][]byte
	gens   []uint64
	failAt map[int]bool // attempts (from 0) that fail before reaching inner
	tries  int
}

func (s *recordingStore) Save(gen uint64, frame []byte) error {
	s.tries++
	if s.failAt[s.tries-1] {
		return errors.New("recording store: planned failure")
	}
	s.frames, s.gens = append(s.frames, append([]byte(nil), frame...)), append(s.gens, gen)
	return s.inner.Save(gen, frame)
}

func (s *recordingStore) Load() (uint64, []byte, error) { return s.inner.Load() }

// rawStore hands Restore exactly the bytes it is given.
type rawStore struct {
	gen    uint64
	loaded []byte
}

func (s rawStore) Save(uint64, []byte) error     { return errors.New("raw store: read-only") }
func (s rawStore) Load() (uint64, []byte, error) { return s.gen, s.loaded, nil }

// baseFrame returns frame decoded if it is a base, with its generation
// zeroed so that frames of different histories compare.
func baseFrame(t *testing.T, what string, frame []byte) []byte {
	t.Helper()
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		t.Fatalf("%s: not a base frame: %v", what, err)
	}
	c.Gen = 0
	return c.Append(nil)
}

// checkpointBase checkpoints mon, which must write a base, and returns it
// with the generation zeroed.
func checkpointBase(t *testing.T, what string, mon *Monitor, store CheckpointStore) []byte {
	t.Helper()
	gen, err := mon.Checkpoint(context.Background())
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", what, err)
	}
	g, loaded, err := store.Load()
	if err != nil || g != gen {
		t.Fatalf("%s: Load = generation %d, %v; want %d", what, g, err, gen)
	}
	return baseFrame(t, what, loaded)
}

// sameLedgers fails unless two monitors agree on every count, byte, phase
// ledger and statistic.
func sameLedgers(t *testing.T, what string, got, want *Monitor) {
	t.Helper()
	if got.Counts() != want.Counts() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: ledgers diverged: %v/%v, want %v/%v", what, got.Counts(), got.Bytes(), want.Counts(), want.Bytes())
	}
	if got.Phases() != want.Phases() || got.BytesByPhase() != want.BytesByPhase() {
		t.Fatalf("%s: phase ledgers diverged", what)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats diverged: %+v, want %+v", what, got.Stats(), want.Stats())
	}
}

// restoreThroughChain is the determinism pin of the delta chain, run by
// TestCheckpointRestoreBitIdentical on every engine, exact and ε = 0.05,
// synchronous and asynchronous: a monitor killed on a quiet sparse trace
// leaves a base and at least three deltas; the monitor restored from that
// chain and one restored from a lone base frame of the same state — taken
// at that step by a twin that never stopped — then agree on every report,
// count, byte, phase ledger and statistic through a stretch with
// violations and resets, and on the next base frame byte for byte. On the
// in-process engines the never-stopped twin agrees as well: restoring
// through a chain is invisible. (The link-backed engines re-converge
// through a forced reset, exactly as from a lone frame; that is what they
// are compared with.)
func restoreThroughChain(t *testing.T) {
	for _, eng := range ckptEngines {
		for _, eps := range []float64{0, 0.05} {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("chain/%s/eps=%v/async=%v", eng.name, eps, async), func(t *testing.T) {
					cfg := Config{Nodes: 256, K: 4, Seed: 11, Epsilon: eps} // large enough that three deltas fit under a link-backed base
					eng.mut(&cfg)
					if async {
						cfg.Ingest = Ingest{QueueDepth: cfg.Nodes}
					}
					restoreThroughChainOn(t, cfg, eng.net, eng.name == "seq" || eng.name == "conc")
				})
			}
		}
	}
}

func restoreThroughChainOn(t *testing.T, cfg Config, net, inProcess bool) {
	const every, quiet = 4, 16
	ctx := context.Background()
	build := func(restoreFrom CheckpointStore, ck Checkpoint) *Monitor {
		c := cfg
		c.Checkpoint = ck
		if net {
			c.Transport = Loopback(3)
		}
		var m *Monitor
		var err error
		if restoreFrom != nil {
			m, err = Restore(restoreFrom, c)
		} else {
			m, err = New(c)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	feed := func(ms []*Monitor, ids []int, vals []int64) [][]int {
		tops := make([][]int, len(ms))
		for i, m := range ms {
			var err error
			if ids == nil {
				_, err = m.Observe(vals)
			} else {
				_, err = m.ObserveDelta(ids, vals)
			}
			if err == nil {
				err = m.Drain(ctx) // asynchronous: one batch a call, so the steps line up
			}
			if err != nil {
				t.Fatal(err)
			}
			tops[i] = m.AppendTop(nil)
		}
		return tops
	}
	chainStore, loneStore := MemCheckpoints(), MemCheckpoints()
	live := build(nil, Checkpoint{Store: chainStore, Every: every})
	twin := build(nil, Checkpoint{Store: loneStore})
	tr := newQuietTrace(cfg.Nodes, 5)
	feed([]*Monitor{live, twin}, nil, tr.vals)
	for s := 1; s < quiet; s++ {
		ids, vals := tr.step(5)
		feed([]*Monitor{live, twin}, ids, vals)
	}
	st := live.CheckpointStats()
	if st.Bases != 1 || st.Deltas < 3 || st.LastErr != nil {
		t.Fatalf("the trace left %d bases and %d deltas (%v); the test wants one base and three deltas", st.Bases, st.Deltas, st.LastErr)
	}
	if _, err := twin.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	live.Close() // the crash
	if _, loaded, _ := chainStore.Load(); len(loaded) == 0 || loaded[0] != wire.TypeCheckpointChain {
		t.Fatal("the store does not hand over a chain")
	}

	// Both restored monitors write their next frames to fresh stores; the
	// first of them is a base.
	fromChainStore, fromLoneStore := MemCheckpoints(), MemCheckpoints()
	fromChain := build(chainStore, Checkpoint{Store: fromChainStore})
	fromLone := build(loneStore, Checkpoint{Store: fromLoneStore})
	if got := fromChain.CheckpointStats().LastGen; got != st.LastGen {
		t.Fatalf("restored at generation %d, the chain ends at %d", got, st.LastGen)
	}
	all := []*Monitor{fromChain, fromLone, twin}
	for s := 0; s < 40; s++ {
		var ids []int
		var vals []int64
		switch {
		case s%9 == 4:
			ids, vals = tr.stir(s%7, int64(s))
		case s%13 == 0:
			ids, vals = nil, tr.vals
		default:
			ids, vals = tr.step(6)
		}
		tops := feed(all, ids, vals)
		if !slices.Equal(tops[0], tops[1]) {
			t.Fatalf("step %d: report %v through the chain, %v from the lone frame", s, tops[0], tops[1])
		}
		if want, err := Oracle(tr.vals, cfg.K); err != nil || (cfg.Epsilon == 0 && !slices.Equal(tops[0], want)) {
			t.Fatalf("step %d: report %v, oracle %v (%v)", s, tops[0], want, err)
		}
		if inProcess && !slices.Equal(tops[0], tops[2]) {
			t.Fatalf("step %d: report %v, the twin that never stopped %v", s, tops[0], tops[2])
		}
	}
	sameLedgers(t, "chain against lone frame", fromChain, fromLone)
	if fromChain.Stats().Resets < 3 {
		t.Fatalf("workload too calm after the restore: %+v", fromChain.Stats())
	}
	next := checkpointBase(t, "through the chain", fromChain, fromChainStore)
	if lone := checkpointBase(t, "from the lone frame", fromLone, fromLoneStore); !bytes.Equal(next, lone) {
		t.Fatal("the next base frame through the chain differs from the one from the lone frame")
	}
	if inProcess {
		sameLedgers(t, "chain against the twin that never stopped", fromChain, twin)
		if never := checkpointBase(t, "the twin", twin, loneStore); !bytes.Equal(next, never) {
			t.Fatal("the next base frame differs from the twin's that never stopped")
		}
	}
}

// engineFrames returns the machine and bank frames of an in-process
// monitor's engine as they stand.
func engineFrames(t *testing.T, m *Monitor) (mach, nodes []byte) {
	t.Helper()
	mach, nodes, err := m.eng.(*core.Monitor).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return mach, nodes
}

// TestCheckpointBaseRule pins when a base is cut and that a chain is a
// sound and minimal record, on both in-process engines, over a trace of
// quiet sparse stretches, dense calls and violations, with saves that
// fail:
//
//   - the first frame is a base, and so is every frame saved after the
//     ledger moved; any other frame is a delta unless that delta would
//     have pushed the chain's delta bytes past its base's, and a chain's
//     delta bytes never exceed its base's;
//   - a delta is, to the byte, the engine's machine frame and the values
//     of the nodes observed since the last frame that was saved — a failed
//     Save loses no node, a saved one forgets them all;
//   - no chain spans a changed generator, membership bit or bound: the
//     bank frame at every delta is its base's but for the key column;
//   - at every saved frame, restoring the chain so far gives the engine's
//     state to the byte.
func TestCheckpointBaseRule(t *testing.T) {
	const n, k = 96, 5
	for _, conc := range []bool{false, true} {
		rec := &recordingStore{inner: MemCheckpoints(), failAt: map[int]bool{3: true, 4: true, 11: true, 20: true}}
		cfg := Config{Nodes: n, K: k, Seed: 3, Concurrent: conc}
		live := cfg
		live.Checkpoint = Checkpoint{Store: rec, Every: 2}
		mon, err := New(live)
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		tr := newQuietTrace(n, 9)
		var (
			chain      [][]byte // the frames of the running chain
			baseGen    uint64
			baseNodes  wire.BankState
			deltaBytes int
			ledger     Counts           // at the last saved frame
			touched    = map[int]bool{} // observed since the last saved frame
			compacted  int              // bases cut for size alone
			failed     int              // failed saves seen so far
		)
		for s := 0; s < 400; s++ {
			var ids []int
			var vals []int64
			switch {
			case s == 0 || s%97 == 50:
				ids, vals = nil, tr.vals
			case s%61 == 30:
				ids, vals = tr.stir(s%11, int64(s))
			default:
				ids, vals = tr.step(1 + s%7)
			}
			saved := len(rec.frames)
			if ids == nil {
				for id := 0; id < n; id++ {
					touched[id] = true
				}
				_, err = mon.Observe(vals)
			} else {
				for _, id := range ids {
					touched[id] = true
				}
				_, err = mon.ObserveDelta(ids, vals)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st := mon.CheckpointStats(); int(st.Failures) != failed {
				failed = int(st.Failures)
				if st.LastErr == nil || len(rec.frames) != saved {
					t.Fatalf("step %d: a failed save left %v and %d new frames", s, st.LastErr, len(rec.frames)-saved)
				}
			}
			if len(rec.frames) == saved {
				continue
			}
			frame, gen := rec.frames[saved], rec.gens[saved]
			mach, nodes := engineFrames(t, mon)
			var bs wire.BankState
			if err := bs.Decode(nodes); err != nil {
				t.Fatal(err)
			}
			// The delta this frame is, or would have been.
			delta := wire.CheckpointDelta{Gen: gen, Base: baseGen, Engine: wire.EngineSeq, Seed: cfg.Seed, Machine: mach}
			if conc {
				delta.Engine = wire.EngineConc
			}
			for id := 0; id < n; id++ {
				if touched[id] {
					delta.IDs, delta.Vals = append(delta.IDs, id), append(delta.Vals, tr.vals[id])
				}
			}
			moved := mon.Counts() != ledger
			switch {
			case frame[0] == wire.TypeCheckpoint:
				if fits := deltaBytes+len(delta.Append(nil)) <= len(chain0(chain)); saved > 0 && !moved && fits {
					t.Fatalf("step %d: generation %d is a base; the ledger did not move and the delta fits (%d + %d of %d bytes)",
						s, gen, deltaBytes, len(delta.Append(nil)), len(chain[0]))
				} else if saved > 0 && !moved {
					compacted++
				}
				chain, baseGen, baseNodes, deltaBytes = [][]byte{frame}, gen, bs, 0
			case saved == 0:
				t.Fatal("the first frame is a delta")
			case moved:
				t.Fatalf("step %d: generation %d is a delta, and the ledger moved since the frame before it", s, gen)
			default:
				if !bytes.Equal(frame, delta.Append(nil)) {
					t.Fatalf("step %d: generation %d is not the delta of the %d nodes observed since the last saved frame", s, gen, len(delta.IDs))
				}
				chain = append(chain, frame)
				if deltaBytes += len(frame); deltaBytes > len(chain[0]) {
					t.Fatalf("step %d: the chain's deltas hold %d bytes, its base %d", s, deltaBytes, len(chain[0]))
				}
				same := bs
				same.Keys = baseNodes.Keys
				if !bytes.Equal(same.Append(nil), baseNodes.Append(nil)) {
					t.Fatalf("step %d: generation %d is a delta, and the bank differs from its base's in more than keys", s, gen)
				}
			}
			ledger = mon.Counts()
			clear(touched)
			loaded := frame
			if len(chain) > 1 {
				loaded = wire.CheckpointChain{Frames: chain}.Append(nil)
			}
			back, err := Restore(rawStore{gen, loaded}, cfg)
			if err != nil {
				t.Fatalf("step %d: the chain of %d frames ending at generation %d does not restore: %v", s, len(chain), gen, err)
			}
			gotMach, gotNodes := engineFrames(t, back)
			back.Close()
			if !bytes.Equal(gotMach, mach) || !bytes.Equal(gotNodes, nodes) {
				t.Fatalf("step %d: the chain of %d frames ending at generation %d restores another state than the engine's", s, len(chain), gen)
			}
		}
		st := mon.CheckpointStats()
		if st.Failures != int64(len(rec.failAt)) || int(st.Saves) != len(rec.frames) || st.Bases+st.Deltas != st.Saves {
			t.Fatalf("concurrent=%v: stats %+v for %d frames and %d planned failures", conc, st, len(rec.frames), len(rec.failAt))
		}
		var bytesSaved int64
		for _, f := range rec.frames {
			bytesSaved += int64(len(f))
		}
		if st.Bytes != bytesSaved {
			t.Fatalf("concurrent=%v: stats count %d bytes, the store saw %d", conc, st.Bytes, bytesSaved)
		}
		if st.Deltas < 3*st.Bases || compacted == 0 {
			t.Fatalf("concurrent=%v: %d bases (%d of them compactions) and %d deltas; the trace exercises too little", conc, st.Bases, compacted, st.Deltas)
		}
	}
}

// chain0 returns the running chain's base frame, or nothing before there
// is one.
func chain0(chain [][]byte) []byte {
	if len(chain) == 0 {
		return nil
	}
	return chain[0]
}

// TestRestoreRejectsForgedChains pins the fail-closed side of the fold: a
// chain as written restores; every forgery of it — frames that pass their
// checksums and could only come from a broken store or an adversary — is
// a typed *RestoreError, and none restores a monitor.
func TestRestoreRejectsForgedChains(t *testing.T) {
	const n, k = 256, 3 // large enough that two deltas fit under a link-backed base
	for _, eng := range ckptEngines[:4] {
		cfg := Config{Nodes: n, K: k, Seed: 21}
		eng.mut(&cfg)
		rec := &recordingStore{inner: MemCheckpoints()}
		live := cfg
		live.Checkpoint = Checkpoint{Store: rec, Every: 3}
		if eng.net {
			live.Transport = Loopback(2)
		}
		mon, err := New(live)
		if err != nil {
			t.Fatal(err)
		}
		tr := newQuietTrace(n, 2)
		if _, err := mon.Observe(tr.vals); err != nil {
			t.Fatal(err)
		}
		for s := 1; s < 9; s++ {
			if _, err := mon.ObserveDelta(tr.step(4)); err != nil {
				t.Fatal(err)
			}
		}
		mon.Close()
		if len(rec.frames) != 3 || rec.frames[1][0] != wire.TypeCheckpointDelta || rec.frames[2][0] != wire.TypeCheckpointDelta {
			t.Fatalf("%s: the trace left %d frames, want a base and two deltas", eng.name, len(rec.frames))
		}
		var base wire.Checkpoint
		var d1, d2 wire.CheckpointDelta
		if err := base.Decode(rec.frames[0]); err != nil {
			t.Fatal(err)
		}
		if err := d1.Decode(rec.frames[1]); err != nil {
			t.Fatal(err)
		}
		if err := d2.Decode(rec.frames[2]); err != nil {
			t.Fatal(err)
		}
		var ms wire.MachineState
		if err := ms.Decode(d2.Machine); err != nil {
			t.Fatal(err)
		}
		restore := func(gen uint64, frames ...[]byte) error {
			c := cfg
			if eng.net {
				c.Transport = Loopback(2)
			}
			loaded := frames[0]
			if len(frames) > 1 {
				loaded = wire.CheckpointChain{Frames: frames}.Append(nil)
			}
			m, err := Restore(rawStore{gen, loaded}, c)
			if m != nil {
				m.Close()
			}
			return err
		}
		if err := restore(3, rec.frames...); err != nil {
			t.Fatalf("%s: the chain as written does not restore: %v", eng.name, err)
		}
		forge := func(mutate func(d *wire.CheckpointDelta)) []byte {
			d := d2
			d.IDs, d.Vals = append([]int(nil), d2.IDs...), append([]int64(nil), d2.Vals...)
			mutate(&d)
			return d.Append(nil)
		}
		// rawKeyed is d2 with its fingerprint's flags byte set to 0x01, the
		// bit of a monitor whose keys were raw values, and resealed.
		rawKeyed := func() []byte {
			frame := forge(func(*wire.CheckpointDelta) {})
			body := frame[:len(frame)-4]
			body[1+wire.SizeUvarint(d2.Gen)+wire.SizeUvarint(d2.Base)+wire.SizeUvarint(uint64(d2.Engine))+wire.SizeUvarint(d2.Seed)] = 0x01
			return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}
		machine := func(mutate func(ms *wire.MachineState)) []byte {
			return forge(func(d *wire.CheckpointDelta) {
				m := ms
				mutate(&m)
				d.Machine = m.Append(nil)
			})
		}
		outsider := -1 // a node of d2 below the top-k: its value may not cross the bound
		for _, id := range d2.IDs {
			if id < n-k {
				outsider = id
			}
		}
		if outsider < 0 {
			t.Fatalf("%s: the last delta names no outsider: %v", eng.name, d2.IDs)
		}
		cases := []struct {
			name        string
			gen         uint64
			frames      [][]byte
			filterState bool // in-process: the rejection wraps coord.ErrFilterState
		}{
			{"the store's generation is not the chain's last", 4, rec.frames, false},
			{"a delta with no base before it", 2, [][]byte{rec.frames[1]}, false},
			{"a base where a delta belongs", 2, [][]byte{rec.frames[0], rec.frames[0]}, false},
			{"an empty container", 0, [][]byte{{wire.TypeCheckpointChain}}, false},
			{"a delta out of order", 3, [][]byte{rec.frames[0], rec.frames[2], rec.frames[1]}, false},
			{"a delta missing from the middle", 3, [][]byte{rec.frames[0], rec.frames[2]}, false},
			{"a delta on another base", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.Base = 7 })}, false},
			{"a delta of another seed", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.Seed++ })}, false},
			{"a delta of another engine", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.Engine = (d.Engine + 1) % 4 })}, false},
			{"a delta of another tie-break mode", 3, [][]byte{rec.frames[0], rec.frames[1], rawKeyed()}, false},
			{"a node id past n", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.IDs[len(d.IDs)-1] = n })}, false},
			{"a value outside the value domain", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.Vals[0] = 1 << 62 })}, false},
			{"a machine frame with another membership", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.Top = append([]int{0}, m.Top[1:]...) })}, false},
			{"a machine frame with another bound", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.TPlus++ })}, false},
			{"a machine frame with another statistic", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.Resets++ })}, false},
			{"a machine frame with another ledger", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.Counts[2]++ })}, false},
			{"a machine frame that steps backwards", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.Step, m.Steps = m.Step-4, m.Steps-4 })}, false},
			{"a machine frame whose step counters part", 3, [][]byte{rec.frames[0], rec.frames[1], machine(func(m *wire.MachineState) { m.Steps++ })}, false},
			{"a machine frame that is none", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) { d.Machine = []byte{1, 2, 3} })}, false},
		}
		if !eng.net && eng.name != "shards" {
			cases = append(cases, struct {
				name        string
				gen         uint64
				frames      [][]byte
				filterState bool
			}{"a value that left its node's filter", 3, [][]byte{rec.frames[0], rec.frames[1], forge(func(d *wire.CheckpointDelta) {
				for j, id := range d.IDs {
					if id == outsider {
						d.Vals[j] = 1000 * n // above every member
					}
				}
			})}, true})
		}
		for _, c := range cases {
			err := restore(c.gen, c.frames...)
			var re *RestoreError
			if !errors.As(err, &re) {
				t.Fatalf("%s: %s: restore returned %v, want a *RestoreError", eng.name, c.name, err)
			}
			if c.filterState && !errors.Is(err, coord.ErrFilterState) {
				t.Fatalf("%s: %s: %v does not wrap coord.ErrFilterState", eng.name, c.name, err)
			}
		}
	}
}

// midWriteCrashInChain (run by TestCheckpointMidWriteCrash) kills the
// store inside a delta write and inside the write of a compacting base, a torn prefix of either
// reaching the medium, on every engine: Restore takes the chain up to the
// frame before the torn one — the deltas before a torn delta, the whole
// previous chain before a torn base — and the monitor re-converges to the
// oracle.
func midWriteCrashInChain(t *testing.T) {
	for _, eng := range ckptEngines {
		t.Run("chain/"+eng.name, func(t *testing.T) {
			cfg := Config{Nodes: 24, K: 4, Seed: 21}
			eng.mut(&cfg)
			midWriteCrashInChainOn(t, cfg, eng.net)
		})
	}
}

func midWriteCrashInChainOn(t *testing.T, cfg Config, net bool) {
	build := func(store CheckpointStore, restore bool) *Monitor {
		c := cfg
		if net {
			c.Transport = Loopback(3)
		}
		var mon *Monitor
		var err error
		if restore {
			mon, err = Restore(store, c)
		} else {
			c.Checkpoint = Checkpoint{Store: store, Every: 2}
			mon, err = New(c)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mon.Close)
		return mon
	}
	// run drives a fresh monitor over the quiet trace until stop says so.
	run := func(store CheckpointStore, stop func() bool) (*Monitor, *quietTrace) {
		mon, tr := build(store, false), newQuietTrace(cfg.Nodes, 31)
		if _, err := mon.Observe(tr.vals); err != nil {
			t.Fatal(err)
		}
		for s := 0; !stop(); s++ {
			if s > 2000 {
				t.Fatal("the trace never got there")
			}
			if _, err := mon.ObserveDelta(tr.step(3)); err != nil {
				t.Fatal(err)
			}
		}
		return mon, tr
	}
	// A probe run tells which save is the first compacting base: the one
	// before it is a delta.
	probe := &recordingStore{inner: MemCheckpoints()}
	run(probe, func() bool {
		bases := 0
		for _, f := range probe.frames {
			if f[0] == wire.TypeCheckpoint {
				bases++
			}
		}
		return bases == 2
	})
	compacting := len(probe.frames) // counted from 1, as a FaultPlan counts
	if compacting < 3 {
		t.Fatalf("the probe compacted at save %d; the test wants a delta before that", compacting)
	}
	for _, kill := range []struct {
		what string
		at   int
	}{{"a delta", compacting - 1}, {"a compacting base", compacting}} {
		inner := ckpt.NewMem()
		faulty := ckpt.NewFaulty(inner, ckpt.FaultPlan{KillAt: int64(kill.at), TornBytes: 11})
		mon, tr := run(faulty, faulty.Killed)
		if st := mon.CheckpointStats(); !errors.Is(st.LastErr, ckpt.ErrKilled) || int(st.Saves) != kill.at-1 {
			t.Fatalf("killed in %s: stats %+v", kill.what, st)
		}
		restored := build(inner, true)
		if got := restored.CheckpointStats().LastGen; got != uint64(kill.at-1) {
			t.Fatalf("killed in %s (save %d): restored from generation %d", kill.what, kill.at, got)
		}
		for s := 0; s < 20; s++ {
			tr.step(3)
			if s%5 == 2 {
				tr.stir(s%3, int64(s))
			}
			got, err := restored.Observe(tr.vals) // dense: the steps since the last frame are caught up on
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := Oracle(tr.vals, cfg.K); !slices.Equal(want, got) {
				t.Fatalf("killed in %s: post-restore step %d: report %v, oracle %v", kill.what, s, got, want)
			}
		}
	}
}
