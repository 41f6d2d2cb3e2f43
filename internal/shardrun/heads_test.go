package shardrun

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// execCount counts delegated execution requests — Round commands, alone or
// inside a batch — where they cross a link: the TagReset ones and the rest.
// On a root link it also counts the Winner notifications and keeps their
// targets.
type execCount struct {
	reset, other, winners atomic.Int64
	mu                    sync.Mutex
	targets               []int // of the Winner frames seen since the last take
	outsiders             int   // Winner frames that did not say IsTop
}

func (c *execCount) see(frame []byte) {
	wiretest.Subframes(frame, func(sub []byte) {
		if m, err := wire.DecodeRound(sub); err == nil {
			if m.Tag == coord.TagReset {
				c.reset.Add(1)
			} else {
				c.other.Add(1)
			}
		}
		if m, err := wire.DecodeWinner(sub); err == nil {
			c.winners.Add(1)
			c.mu.Lock()
			c.targets = append(c.targets, m.Target)
			if !m.IsTop {
				c.outsiders++
			}
			c.mu.Unlock()
		}
	})
}

// take returns the Winner targets seen since the last call, ascending, and
// how many of them were not told IsTop.
func (c *execCount) take() (targets []int, outsiders int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	targets, outsiders = c.targets, c.outsiders
	c.targets, c.outsiders = nil, 0
	slices.Sort(targets)
	return targets, outsiders
}

// TestResetRunsSPlusKExecutions pins the work of a delegated FILTERRESET as
// an exact count, taken on the links themselves. (The name is from when a
// reset was a k-merge of S + k local executions; the ids stay, see
// fanouttest.Gathers.) Over L leaves a reset is one execution for
// min(k+1, n) winners: it runs exactly L local executions — every leaf once
// — and the root ships exactly B execution requests over its B links whatever
// hangs below them, as for every other execution; and it sends a Winner to
// the k members and to nobody else. The time-0 reset and the forced reset
// of a recovery count like any other.
func TestResetRunsSPlusKExecutions(t *testing.T) {
	shapes := []struct {
		name          string
		branch, depth int
	}{
		{"S=1", 1, 1}, {"S=2", 2, 1}, {"S=4", 4, 1}, {"S=8", 8, 1},
		{"2^2", 2, 2}, {"2^3", 2, 3}, {"4^2", 4, 2},
	}
	for _, g := range fanouttest.Gathers {
		for _, sh := range shapes {
			t.Run(g.Name+"/"+sh.name, func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				const n, k, steps = 32, 5, 120
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
				var resets, rootReset, rootOther, leafReset, leafOther, winners int64
				for s := 0; s < steps; s++ {
					if s == steps/2 {
						// Cut a root link between steps: this call finds it dead
						// before any frame moved, the next one redials the subtree
						// and forces a reset.
						links[0].Close()
					}
					src.Step(vals)
					top := e.Observe(vals)
					dResets := e.Stats().Resets - resets
					resets += dResets
					if got, want := root.reset.Load()-rootReset, dResets*B; got != want {
						t.Fatalf("step %d: root shipped %d reset executions for %d resets, want %d", s, got, dResets, want)
					}
					if got, want := leaves.reset.Load()-leafReset, dResets*L; got != want {
						t.Fatalf("step %d: leaves ran %d reset executions for %d resets, want %d", s, got, dResets, want)
					}
					if got, want := root.winners.Load()-winners, dResets*k; got != want {
						t.Fatalf("step %d: root sent %d winner notifications for %d resets, want %d", s, got, dResets, want)
					}
					if targets, outsiders := root.take(); outsiders != 0 || dResets == 1 && !slices.Equal(targets, top) {
						t.Fatalf("step %d: winners %v (%d of them no members) notified, the reset made %v the members", s, targets, outsiders, top)
					}
					execs := (root.other.Load() - rootOther) / B
					if got := root.other.Load() - rootOther; got != execs*B {
						t.Fatalf("step %d: %d other execution requests do not divide over %d root links", s, got, B)
					}
					if got := leaves.other.Load() - leafOther; got != execs*L {
						t.Fatalf("step %d: %d other executions ran %d times on the leaves, want all %d leaves each", s, execs, got, L)
					}
					rootReset, leafReset, winners = root.reset.Load(), leaves.reset.Load(), root.winners.Load()
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

// expect runs one execution, alone or behind the given commands in one
// batch, and checks that it reached every kid exactly once and the merged
// digest that came back.
func (p *scriptedParent) expect(what string, round wire.Round, want wire.ShardDigest, before ...[]byte) {
	p.t.Helper()
	for _, k := range p.kids {
		k.seen()
	}
	reps := p.must(append(before, round.Append(nil))...)
	got, err := wire.DecodeShardDigest(reps[len(reps)-1])
	if err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got.Append(nil), want.Append(nil)) {
		p.t.Fatalf("%s: merged digest %+v, want %+v", what, got, want)
	}
	wantResets := 0
	if round.Tag == coord.TagReset {
		wantResets = 1
	}
	for ki, k := range p.kids {
		if frames, resets := k.seen(); frames != 1 || resets != wantResets {
			p.t.Fatalf("%s: kid %d was sent %d frames with %d reset executions, want 1 with %d", what, ki, frames, resets, wantResets)
		}
	}
}

// resetRound is a reset's execution request for want winners of 12 nodes.
func resetRound(want int) wire.Round {
	return wire.Round{Tag: coord.TagReset, Best: int64(order.NegInf), Bound: 12, Step: 1, Want: want}
}

func assign(lo, hi int) []byte {
	return wire.Assign{Lo: lo, Hi: hi, N: 12, K: 2, Seed: 1}.Append(nil)
}

// won is a kid's digest naming the given winners, (id, key) pairs best
// first, with some charges.
func won(pairs ...int64) wire.ShardDigest {
	d := wire.ShardDigest{Ups: 3, UpBytes: 30, Bcasts: 2, BcastBytes: 20}
	return list(d, pairs...)
}

// list gives d the given winners, (id, key) pairs best first.
func list(d wire.ShardDigest, pairs ...int64) wire.ShardDigest {
	d.OK, d.ID, d.Key, d.Rest = false, 0, 0, nil
	for i := 0; i < len(pairs); i += 2 {
		if i == 0 {
			d.OK, d.ID, d.Key = true, int(pairs[0]), pairs[1]
			continue
		}
		d.Rest = append(d.Rest, wire.Bid{ID: int(pairs[i]), Key: pairs[i+1]})
	}
	return d
}

// TestInteriorHeadCache scripts a parent over one interior and three stub
// kids and pins the relay's merge of their winner lists frame by frame.
// (The name is from when the relay kept a head per kid and asked only the
// kid whose head was taken; the id stays, see fanouttest.Gathers.) Every
// execution reaches every kid, once; the merged list is the want best of
// the kids' winners, best first, the first kid in range order ahead among
// equal keys; the charges are the sum of what the kids charged.
func TestInteriorHeadCache(t *testing.T) {
	p := newScriptedParent(t, 3)
	k0, k1, k2 := p.kids[0], p.kids[1], p.kids[2]
	p.must(assign(0, 12)) // kids own [0, 4), [4, 8), [8, 12)
	sum := func(kids int64, pairs ...int64) wire.ShardDigest {
		return list(wire.ShardDigest{Ups: 3 * kids, UpBytes: 30 * kids, Bcasts: 2 * kids, BcastBytes: 20 * kids}, pairs...)
	}

	// Three lists, cut to the three best.
	k0.set(won(1, 50, 2, 40))
	k1.set(won(5, 70, 6, 45, 7, 10))
	k2.set(won(9, 60))
	p.expect("merge", resetRound(3), sum(3, 5, 70, 9, 60, 1, 50))
	p.expect("merge, behind a ResetBegin", resetRound(3), sum(3, 5, 70, 9, 60, 1, 50), wire.AppendBare(nil, wire.TypeResetBegin))
	// Fewer winners below than wanted: all of them, in order.
	p.expect("short lists", resetRound(8), sum(3, 5, 70, 9, 60, 1, 50, 6, 45, 2, 40, 7, 10))
	// One winner wanted, one a kid: the old merge.
	k0.set(won(1, 50))
	k1.set(won(5, 70))
	p.expect("want 1", resetRound(1), sum(3, 5, 70))
	k0.set(won(1, 50, 2, 40))

	// A kid with nobody in the cohort still charged its rounds.
	k1.set(wire.ShardDigest{Bcasts: 1, BcastBytes: 9})
	p.expect("an empty kid", resetRound(3), list(wire.ShardDigest{Ups: 6, UpBytes: 60, Bcasts: 5, BcastBytes: 49}, 9, 60, 1, 50, 2, 40))
	k0.set(wire.ShardDigest{Bcasts: 1, BcastBytes: 9})
	k2.set(wire.ShardDigest{Bcasts: 1, BcastBytes: 9})
	p.expect("three empty kids", resetRound(3), wire.ShardDigest{Bcasts: 3, BcastBytes: 27})

	// The other executions merge the same way, in their own sense, and
	// reach every kid too.
	k0.set(won(1, 50))
	k1.set(won(5, 70))
	k2.set(won(9, 60))
	p.expect("a minimum", wire.Round{Tag: coord.TagHandMin, Best: int64(order.NegInf), Bound: 10, Step: 4, Want: 1}, sum(3, 1, 50))
	p.expect("a maximum, behind an install", wire.Round{Tag: coord.TagHandMax, Best: int64(order.NegInf), Bound: 10, Step: 4, Want: 1}, sum(3, 5, 70),
		wire.Midpoint{Mid: 5}.Append(nil))

	// k = n: every kid lists all of its nodes, the merge all twelve.
	k0.set(won(3, 12, 0, 9, 1, 5, 2, 1))
	k1.set(won(4, 11, 7, 8, 6, 6, 5, 2))
	k2.set(won(8, 10, 9, 7, 10, 4, 11, 3))
	p.expect("k = n", resetRound(12), sum(3, 3, 12, 4, 11, 8, 10, 0, 9, 7, 8, 9, 7, 6, 6, 1, 5, 10, 4, 11, 3, 5, 2, 2, 1))

	// Equal keys of different kids (which the tie-break injection never
	// produces; the re-Assign also shows the merge keeps nothing across
	// one): the first kid in range order stays ahead.
	p.must(assign(0, 12))
	k0.set(won(1, 90, 3, 80))
	k1.set(won(5, 90))
	k2.set(won(8, 95, 9, 90))
	p.expect("ties", resetRound(3), sum(3, 8, 95, 1, 90, 5, 90))
	p.expect("ties, cut inside a run of them", resetRound(2), sum(3, 8, 95, 1, 90))
	p.expect("ties, all of them", resetRound(5), sum(3, 8, 95, 1, 90, 5, 90, 9, 90, 3, 80))

	// A narrowing re-Assign shuts the surplus kid down; the merge is over
	// the two that are left.
	k0.set(won(0, 7))
	k1.set(won(1, 8))
	p.must(assign(0, 2))
	p.kids = p.kids[:2]
	p.expect("narrowing re-Assign", resetRound(2), sum(2, 1, 8, 0, 7))
	k2.mu.Lock()
	quit := k2.quit
	k2.mu.Unlock()
	if !quit {
		t.Fatal("the surplus kid was not shut down")
	}
}

// TestInteriorRejectsBadDigest: a kid answering with a winner outside its
// range or named twice, with more winners than the execution wanted, with
// a list out of order, or with a negative charge, kills the interior — its
// parent sees the link die, as for any failed subtree — before any of the
// digest is merged.
func TestInteriorRejectsBadDigest(t *testing.T) {
	bad := []struct {
		name string
		d    wire.ShardDigest
	}{
		{"winner outside the range", won(7, 99)},
		{"negative charge", wire.ShardDigest{OK: true, ID: 1, Key: 99, Ups: -1}},
		{"later winner outside the range", won(1, 99, 4, 98)},
		{"more winners than wanted", won(0, 99, 1, 98, 2, 97, 3, 96)},
		{"winners without a first", wire.ShardDigest{Rest: []wire.Bid{{ID: 1, Key: 5}}}},
		{"keys ascending", won(1, 50, 2, 60)},
		{"equal keys", won(1, 50, 2, 50)},
		{"winner named twice", won(1, 50, 2, 40, 1, 30)},
		{"winner named twice, equal keys", won(1, 50, 1, 50)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			p := newScriptedParent(t, 2)
			p.must(assign(0, 8))
			p.kids[0].set(won(1, 50))
			p.kids[1].set(won(5, 70, 6, 60))
			p.expect("warm-up", resetRound(3), list(wire.ShardDigest{Ups: 6, UpBytes: 60, Bcasts: 4, BcastBytes: 40}, 5, 70, 6, 60, 1, 50))
			p.kids[0].set(tc.d)
			if _, err := p.send(wire.AppendBare(nil, wire.TypeResetBegin), resetRound(3).Append(nil)); err == nil {
				t.Fatal("the interior answered over a bad digest")
			}
			if err := <-p.done; err == nil {
				t.Fatal("ServeInterior returned nil over a bad digest")
			}
		})
	}
	// White box, for what the dead interior's parent cannot see: nothing of
	// a rejected digest reached the merge — not even the valid head of a
	// list whose tail is bad.
	for _, tc := range bad {
		kids := []*stubKid{{}, {}}
		r := newInterior([]transport.Link{fanout.Loopback(kids[0].serve), fanout.Loopback(kids[1].serve)})
		defer r.fan.Close()
		if _, err := r.respond(assign(0, 8)); err != nil {
			t.Fatal(err)
		}
		kids[0].set(tc.d)
		kids[1].set(won(5, 70))
		if _, err := r.respond(resetRound(3).Append(nil)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := r.merge.top.Winners(); len(got) != 0 || r.merge.Ups != 0 {
			t.Fatalf("%s: the merge holds %+v and %d ups after the rejection", tc.name, got, r.merge.Ups)
		}
	}
}
