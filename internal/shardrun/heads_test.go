package shardrun

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// execCount counts delegated execution requests — Round commands, alone or
// inside a batch — where they cross a link: the TagReset ones and the rest.
type execCount struct{ reset, other atomic.Int64 }

func (c *execCount) see(frame []byte) {
	wiretest.Rounds(frame, func(m wire.Round) {
		if m.Tag == coord.TagReset {
			c.reset.Add(1)
		} else {
			c.other.Add(1)
		}
	})
}

// TestResetRunsSPlusKExecutions pins the work of a delegated FILTERRESET as
// an exact count, taken on the links themselves. Over L leaves a reset's
// want = min(k+1, n) extractions run L + want − 1 local executions — every
// leaf once, then only the leaf that owned the last winner — where the
// full re-merge ran want·L, and the root ships B + want − 1 execution
// requests over its B links whatever hangs below them; every other
// execution still reaches all L leaves. The time-0 reset and the forced
// reset of a recovery count like any other.
func TestResetRunsSPlusKExecutions(t *testing.T) {
	shapes := []struct {
		name          string
		branch, depth int
	}{
		{"S=1", 1, 1}, {"S=2", 2, 1}, {"S=4", 4, 1}, {"S=8", 8, 1},
		{"2^2", 2, 2}, {"2^3", 2, 3}, {"4^2", 4, 2},
	}
	for _, g := range gathers {
		for _, sh := range shapes {
			t.Run(g.name+"/"+sh.name, func(t *testing.T) {
				setGather(t, g.procs)
				const n, k, steps = 32, 5, 120
				const extractions = k + 1 // a reset's, k < n
				var root, leaves execCount
				up := func(level int, l transport.Link) transport.Link {
					if level > 1 {
						return l
					}
					return &tap{Link: l, onSend: root.see}
				}
				leaf := func(l transport.Link) error { return ServeShard(&tap{Link: l, onRecv: leaves.see}) }
				cfg := Config{
					N: n, K: k, Seed: 7, Tree: rigTree(sh.branch, sh.depth), RetryBackoff: time.Millisecond,
					Redial: func() (transport.Link, error) { return rigSubtree(sh.branch, sh.depth, 1, up, leaf), nil },
				}
				links := rigLinks(sh.branch, sh.depth, up, leaf)
				e, err := New(cfg, links)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				B, L := int64(sh.branch), int64(e.Leaves())

				src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 2500, Seed: 3})
				vals := make([]int64, n)
				var resets, rootReset, rootOther, leafReset, leafOther int64
				for s := 0; s < steps; s++ {
					if s == steps/2 {
						// Cut a root link between steps: this call finds it dead
						// before any frame moved, the next one redials the subtree
						// and forces a reset.
						links[0].Close()
					}
					src.Step(vals)
					e.Observe(vals)
					dResets := e.Stats().Resets - resets
					resets += dResets
					if got, want := root.reset.Load()-rootReset, dResets*(B+extractions-1); got != want {
						t.Fatalf("step %d: root shipped %d reset executions for %d resets, want %d", s, got, dResets, want)
					}
					if got, want := leaves.reset.Load()-leafReset, dResets*(L+extractions-1); got != want {
						t.Fatalf("step %d: leaves ran %d reset executions for %d resets, want %d", s, got, dResets, want)
					}
					execs := (root.other.Load() - rootOther) / B
					if got := root.other.Load() - rootOther; got != execs*B {
						t.Fatalf("step %d: %d other execution requests do not divide over %d root links", s, got, B)
					}
					if got := leaves.other.Load() - leafOther; got != execs*L {
						t.Fatalf("step %d: %d other executions ran %d times on the leaves, want all %d leaves each", s, execs, got, L)
					}
					rootReset, leafReset = root.reset.Load(), leaves.reset.Load()
					rootOther, leafOther = root.other.Load(), leaves.other.Load()
				}
				if err := e.Err(); err != nil {
					t.Fatal(err)
				}
				if h := e.Health(); h.Recoveries != 1 || h.Degraded {
					t.Fatalf("the cut link was not recovered exactly once: %+v", h)
				}
				if st := e.Stats(); st.Resets < 5 || rootOther == 0 {
					t.Fatalf("trace too quiet to count anything: %+v, %d other executions", st, rootOther)
				}
			})
		}
	}
}

// stubKid is a scripted child of an interior under test: it acks an Assign
// with Ready, answers every Round with the digest it was told to, acks
// everything else with an empty Reply, and counts what it was sent.
type stubKid struct {
	mu     sync.Mutex
	answer wire.ShardDigest
	frames int  // transport frames received
	resets int  // Round(TagReset) commands among them
	quit   bool // it was sent Shutdown
}

func (k *stubKid) serve(link transport.Link) error {
	var views [][]byte
	return fanout.ServeLoop(link, func(frame []byte) (bool, error) {
		k.mu.Lock()
		defer k.mu.Unlock()
		k.frames++
		views = views[:0]
		wiretest.Subframes(frame, func(sub []byte) {
			var rep []byte
			switch typ, _ := wire.MsgType(sub); typ {
			case wire.TypeAssign:
				rep = wire.AppendBare(nil, wire.TypeReady)
			case wire.TypeRound:
				if m, _ := wire.DecodeRound(sub); m.Tag == coord.TagReset {
					k.resets++
				}
				rep = k.answer.Append(nil)
			case wire.TypeShutdown:
				k.quit = true
				return
			default:
				rep = wire.Reply{}.Append(nil)
			}
			views = append(views, rep)
		})
		if k.quit {
			return false, nil
		}
		out := views[0]
		if len(views) > 1 {
			out = wire.Batch{Frames: views}.Append(nil)
		}
		return true, link.Send(out)
	})
}

func (k *stubKid) set(d wire.ShardDigest) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.answer = d
}

// seen returns the frames and TagReset executions the kid was sent since
// the last call.
func (k *stubKid) seen() (frames, resets int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	frames, resets = k.frames, k.resets
	k.frames, k.resets = 0, 0
	return frames, resets
}

// scriptedParent drives one ServeInterior over stub kids by hand.
type scriptedParent struct {
	t    *testing.T
	link transport.Link
	kids []*stubKid
	done chan error // ServeInterior's return value
}

func newScriptedParent(t *testing.T, kids int) *scriptedParent {
	p := &scriptedParent{t: t, done: make(chan error, 1)}
	children := make([]transport.Link, kids)
	for i := range children {
		k := &stubKid{}
		p.kids = append(p.kids, k)
		children[i] = fanout.Loopback(k.serve)
	}
	parent, serveEnd := transport.Pipe()
	p.link = parent
	go func() {
		err := ServeInterior(serveEnd, children)
		serveEnd.Close()
		p.done <- err
	}()
	t.Cleanup(func() { parent.Close() })
	return p
}

// send ships the commands as one frame — a batch when there are several —
// and returns the reply sub-frames, or the link error.
func (p *scriptedParent) send(cmds ...[]byte) ([][]byte, error) {
	out := cmds[0]
	if len(cmds) > 1 {
		out = wire.Batch{Frames: cmds}.Append(nil)
	}
	if err := p.link.Send(out); err != nil {
		return nil, err
	}
	frame, err := p.link.Recv()
	if err != nil {
		return nil, err
	}
	var reps [][]byte
	wiretest.Subframes(frame, func(sub []byte) { reps = append(reps, append([]byte(nil), sub...)) })
	if len(reps) != len(cmds) {
		p.t.Fatalf("%d commands answered by %d replies", len(cmds), len(reps))
	}
	return reps, nil
}

func (p *scriptedParent) must(cmds ...[]byte) [][]byte {
	p.t.Helper()
	reps, err := p.send(cmds...)
	if err != nil {
		p.t.Fatalf("interior hung up: %v", err)
	}
	return reps
}

// expect runs one TagReset execution, alone or behind the given commands
// in one batch, and checks which kids it reached (each exactly once, the
// others with no frame at all) and the merged digest that came back.
func (p *scriptedParent) expect(what string, asked []int, want wire.ShardDigest, before ...[]byte) {
	p.t.Helper()
	for _, k := range p.kids {
		k.seen()
	}
	reps := p.must(append(before, resetRound)...)
	got, err := wire.DecodeShardDigest(reps[len(reps)-1])
	if err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
	if got != want {
		p.t.Fatalf("%s: merged digest %+v, want %+v", what, got, want)
	}
	for ki, k := range p.kids {
		frames, resets := k.seen()
		wantN := 0
		for _, a := range asked {
			if a == ki {
				wantN = 1
			}
		}
		if resets != wantN || (wantN == 0 && len(before) == 0 && frames != 0) {
			p.t.Fatalf("%s: kid %d ran %d reset executions in %d frames, want %d", what, ki, resets, frames, wantN)
		}
	}
}

var (
	resetRound = wire.Round{Tag: coord.TagReset, Best: int64(order.NegInf), Bound: 12, Step: 1}.Append(nil)
	resetBegin = wire.AppendBare(nil, wire.TypeResetBegin)
)

func assign(lo, hi int) []byte {
	return wire.Assign{Lo: lo, Hi: hi, N: 12, K: 2, Seed: 1}.Append(nil)
}

// won is a kid's digest naming id with the given key, with some charges.
func won(id int, key int64) wire.ShardDigest {
	return wire.ShardDigest{OK: true, ID: id, Key: key, Ups: 3, UpBytes: 30, Bcasts: 2, BcastBytes: 20}
}

// TestInteriorHeadCache scripts a parent over one interior and three stub
// kids and pins the head rule frame by frame: a kid is asked to run a
// TagReset execution exactly when something that can change its answer
// was sent to it since it last answered one, and is answered for from its
// head otherwise.
func TestInteriorHeadCache(t *testing.T) {
	p := newScriptedParent(t, 3)
	k0, k1, k2 := p.kids[0], p.kids[1], p.kids[2]
	p.must(assign(0, 12)) // kids own [0, 4), [4, 8), [8, 12)
	a, b, c := won(1, 50), won(5, 70), won(9, 60)
	k0.set(a)
	k1.set(b)
	k2.set(c)
	sum := func(w wire.ShardDigest, asked int64) wire.ShardDigest {
		w.Ups, w.UpBytes, w.Bcasts, w.BcastBytes = 3*asked, 30*asked, 2*asked, 20*asked
		return w
	}

	// After an Assign every head is cold, ResetBegin or not.
	p.expect("cold after Assign", []int{0, 1, 2}, sum(b, 3))
	// Nothing was sent since: answered from the heads, for free.
	p.expect("all fresh", nil, sum(b, 0))
	k1.set(won(6, 40)) // what kid 1 would answer if asked: nobody asks

	// A Winner stales exactly its owner, alone and inside the batch.
	p.must(wire.Winner{Target: 5, IsTop: true}.Append(nil))
	p.expect("Winner to kid 1", []int{1}, sum(c, 1))
	k2.set(won(10, 30))
	p.expect("Winner to kid 2, batched", []int{2}, sum(a, 1), wire.Winner{Target: 9}.Append(nil))

	// An observation stales the kids it is routed to.
	k0.set(won(2, 90))
	p.expect("delta to kid 0", []int{0}, sum(won(2, 90), 1),
		wire.ObserveDelta{Step: 2, IDs: []int{2}, Vals: []int64{90}}.Append(nil))
	p.expect("delta to kids 1 and 2", []int{1, 2}, sum(won(2, 90), 2),
		wire.ObserveDelta{Step: 3, IDs: []int{4, 11}, Vals: []int64{1, 2}}.Append(nil))
	p.expect("dense observe", []int{0, 1, 2}, sum(won(2, 90), 3),
		wire.Observe{Step: 4, Vals: make([]int64, 12)}.Append(nil))

	// Installs and other executions leave the heads alone; the other
	// executions themselves always reach every kid.
	p.must(wire.Midpoint{Mid: 5}.Append(nil))
	p.must(wire.ApproxBounds{Lo: 3, Hi: 9}.Append(nil))
	for _, k := range p.kids {
		k.seen()
	}
	p.must(wire.Round{Tag: coord.TagHandMax, Best: int64(order.NegInf), Bound: 10, Step: 4}.Append(nil))
	for ki, k := range p.kids {
		if frames, resets := k.seen(); frames != 1 || resets != 0 {
			t.Fatalf("a TagHandMax execution reached kid %d in %d frames (%d resets), want 1 (0)", ki, frames, resets)
		}
	}
	p.expect("after installs and a handler execution", nil, sum(won(2, 90), 0))

	// Ties go to the first kid in range order, asked or standing.
	k2.set(won(8, 90))
	p.expect("tie, later kid asked", []int{2}, sum(won(2, 90), 1), wire.Winner{Target: 10}.Append(nil))
	k0.set(won(3, 90))
	p.expect("tie, earlier kid asked", []int{0}, sum(won(3, 90), 1), wire.Winner{Target: 2}.Append(nil))

	// ResetBegin stales everyone; so does an exhausted kid's empty answer
	// stand like any other.
	k1.set(wire.ShardDigest{Bcasts: 1, BcastBytes: 9})
	p.expect("ResetBegin", []int{0, 1, 2}, wire.ShardDigest{OK: true, ID: 3, Key: 90, Ups: 6, UpBytes: 60, Bcasts: 5, BcastBytes: 49}, resetBegin)
	p.expect("empty head stands", nil, sum(won(3, 90), 0))

	// A re-Assign stales everyone, at the same width and at one that shuts
	// the surplus kid down.
	p.must(assign(0, 12))
	p.expect("re-Assign", []int{0, 1, 2}, wire.ShardDigest{OK: true, ID: 3, Key: 90, Ups: 6, UpBytes: 60, Bcasts: 5, BcastBytes: 49})
	k0.set(won(0, 7))
	k1.set(won(1, 8))
	p.must(assign(0, 2))
	p.kids = p.kids[:2]
	p.expect("narrowing re-Assign", []int{0, 1}, sum(won(1, 8), 2))
	k2.mu.Lock()
	quit := k2.quit
	k2.mu.Unlock()
	if !quit {
		t.Fatal("the surplus kid was not shut down")
	}
}

// TestInteriorRejectsBadDigest: a kid answering with a winner outside its
// range, or with a negative charge, kills the interior — its parent sees
// the link die, as for any failed subtree — and the digest never becomes a
// head.
func TestInteriorRejectsBadDigest(t *testing.T) {
	bad := []struct {
		name string
		d    wire.ShardDigest
	}{
		{"winner outside the range", won(7, 99)},
		{"negative charge", wire.ShardDigest{OK: true, ID: 1, Key: 99, Ups: -1}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			p := newScriptedParent(t, 2)
			p.must(assign(0, 8))
			p.kids[0].set(won(1, 50))
			p.kids[1].set(won(5, 70))
			p.expect("warm-up", []int{0, 1}, wire.ShardDigest{OK: true, ID: 5, Key: 70, Ups: 6, UpBytes: 60, Bcasts: 4, BcastBytes: 40})
			p.kids[0].set(tc.d)
			if _, err := p.send(wire.Winner{Target: 1}.Append(nil), resetRound); err == nil {
				t.Fatal("the interior answered over a bad digest")
			}
			if err := <-p.done; err == nil {
				t.Fatal("ServeInterior returned nil over a bad digest")
			}
		})
	}

	// White box, for what the dead interior's parent cannot see: the
	// rejected digest was not kept.
	for _, tc := range bad {
		kids := []*stubKid{{}, {}}
		r := newInterior([]transport.Link{fanout.Loopback(kids[0].serve), fanout.Loopback(kids[1].serve)})
		defer r.fan.Close()
		if _, err := r.respond(assign(0, 8)); err != nil {
			t.Fatal(err)
		}
		kids[0].set(won(1, 50))
		kids[1].set(won(5, 70))
		if _, err := r.respond(resetRound); err != nil {
			t.Fatal(err)
		}
		kids[0].set(tc.d)
		batch := wire.Batch{Frames: [][]byte{wire.Winner{Target: 1}.Append(nil), resetRound}}.Append(nil)
		if _, err := r.respond(batch); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := r.heads[0].ShardDigest; got != won(1, 50) {
			t.Fatalf("%s: kid 0's head is %+v after the rejection, want the last valid answer %+v", tc.name, got, won(1, 50))
		}
	}
}
