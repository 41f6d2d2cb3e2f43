package shardrun

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

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
// reset was a k-merge of S + k local executions; the ids stay.) Over L
// leaves a reset is one execution for min(k+1, n) winners: it runs exactly
// L local executions — every leaf once — and the root ships exactly B execution requests over its B links whatever
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
					N: n, K: k, Seed: 7, Tree: rigTree(sh.branch, sh.depth),
					Redial: func() (transport.Link, error) { return rigSubtree(sh.branch, sh.depth, 1, up, leaf), nil },
				}
				links := rigLinks(sh.branch, sh.depth, up, leaf)
				e, err := New(cfg, links)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				nl, _ := Tree{Branch: sh.branch, Depth: sh.depth}.Leaves()
				B, L := int64(sh.branch), int64(nl)

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
// with Ready, answers every Round with the frame it was told to — a bid
// log, or anything else — acks everything else with an empty Reply, and
// counts what it was sent.
type stubKid struct {
	mu     sync.Mutex
	answer []byte
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
				rep = slices.Clone(k.answer)
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

func (k *stubKid) set(answer []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.answer = answer
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
// batch, and checks that it reached every kid exactly once and the bid log
// that came back, byte for byte.
func (p *scriptedParent) expect(what string, round wire.Round, want []byte, before ...[]byte) {
	p.t.Helper()
	for _, k := range p.kids {
		k.seen()
	}
	reps := p.must(append(before, round.Append(nil))...)
	if got := reps[len(reps)-1]; !bytes.Equal(got, want) {
		p.t.Fatalf("%s: relay answered %x, want the log %x", what, got, want)
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

// resetRound is a reset's execution request for want winners of 12 nodes:
// five rounds, 0 to 4.
func resetRound(want int) wire.Round {
	return wire.Round{Tag: coord.TagReset, Best: int64(order.NegInf), Bound: 12, Step: 1, Want: want}
}

func assign(lo, hi int) []byte {
	return wire.Assign{Lo: lo, Hi: hi, N: 12, K: 2, Seed: 1}.Append(nil)
}

// bid is one logged bid: its round, its node and the node's key.
type bid struct {
	r, id int
	key   int64
}

// logOf is the bid log of a host whose first node is lo, holding the given
// bids in log order.
func logOf(lo int, bids ...bid) []byte {
	var w wire.BidLogWriter
	w.Begin(nil, lo)
	for _, b := range bids {
		w.Add(b.r, b.id, b.key)
	}
	return w.End()
}

// TestInteriorHeadCache scripts a parent over one interior and three stub
// kids and pins the relay's answer frame by frame. (The name is from when
// the relay kept a head per kid and asked only the kid whose head was
// taken; the id stays.) Every execution reaches every kid, once; the answer
// is the kids' logs replayed in range order against the subtree's own
// exact cut, round by round — a bid the cut at the start of its round
// dominates is dropped, the rest are kept in round and id order — and
// coded from the relay's first node, as one host of its range would.
func TestInteriorHeadCache(t *testing.T) {
	p := newScriptedParent(t, 3)
	k0, k1, k2 := p.kids[0], p.kids[1], p.kids[2]
	p.must(assign(0, 12)) // kids own [0, 4), [4, 8), [8, 12)

	k0.set(logOf(0, bid{0, 1, 50}, bid{2, 2, 40}))
	k1.set(logOf(4, bid{0, 5, 70}, bid{1, 6, 45}, bid{1, 7, 10}))
	k2.set(logOf(8, bid{1, 9, 60}))
	// Want 3: the cut stays −∞ until three bids arrived, after round 1 it
	// is 50, and node 2's 40 in round 2 is dropped.
	kept := logOf(0, bid{0, 1, 50}, bid{0, 5, 70}, bid{1, 6, 45}, bid{1, 7, 10}, bid{1, 9, 60})
	p.expect("replay", resetRound(3), kept)
	p.expect("replay, behind a ResetBegin", resetRound(3), kept, wire.AppendBare(nil, wire.TypeResetBegin))
	// Fewer bids below than wanted: all of them.
	p.expect("short logs", resetRound(8), logOf(0, bid{0, 1, 50}, bid{0, 5, 70}, bid{1, 6, 45}, bid{1, 7, 10}, bid{1, 9, 60}, bid{2, 2, 40}))
	// One winner wanted: after round 0 the cut is 70, and nothing later
	// passes it.
	p.expect("a maximum, behind an install", wire.Round{Tag: coord.TagHandMax, Best: int64(order.NegInf), Bound: 10, Step: 4, Want: 1},
		logOf(0, bid{0, 1, 50}, bid{0, 5, 70}), wire.Midpoint{Mid: 5}.Append(nil))
	// A minimum, in its own sense: after round 0 the cut is 50, which
	// 45 and 10 pass and 60 does not; after round 1 it is 10.
	p.expect("a minimum", wire.Round{Tag: coord.TagHandMin, Best: int64(order.NegInf), Bound: 10, Step: 4, Want: 1},
		logOf(0, bid{0, 1, 50}, bid{0, 5, 70}, bid{1, 6, 45}, bid{1, 7, 10}))

	// A kid with nobody in the cohort answers an empty log.
	k1.set(logOf(4))
	p.expect("an empty kid", resetRound(3), logOf(0, bid{0, 1, 50}, bid{1, 9, 60}, bid{2, 2, 40}))
	k0.set(logOf(0))
	k2.set(logOf(8))
	p.expect("three empty kids", resetRound(3), logOf(0))

	// Equal keys (which the tie-break injection never produces): a bid
	// equal to the cut is not dominated by it, so it is kept.
	k0.set(logOf(0, bid{0, 1, 90}, bid{1, 3, 80}))
	k1.set(logOf(4, bid{0, 5, 90}))
	k2.set(logOf(8, bid{0, 8, 95}, bid{1, 9, 90}))
	p.expect("ties", resetRound(2), logOf(0, bid{0, 1, 90}, bid{0, 5, 90}, bid{0, 8, 95}, bid{1, 9, 90}))

	// A re-Assign that moves the relay's first node: its log counts from
	// there (the kids own [2, 6), [6, 9), [9, 12)).
	p.must(assign(2, 12))
	k0.set(logOf(2, bid{0, 3, 50}))
	k1.set(logOf(6, bid{0, 6, 20}))
	k2.set(logOf(9, bid{1, 11, 30}))
	p.expect("a relay from node 2", resetRound(3), logOf(2, bid{0, 3, 50}, bid{0, 6, 20}, bid{1, 11, 30}))

	// A narrowing re-Assign shuts the surplus kid down; the replay is over
	// the two that are left.
	k0.set(logOf(0, bid{0, 0, 7}))
	k1.set(logOf(1, bid{0, 1, 8}))
	p.must(assign(0, 2))
	p.kids = p.kids[:2]
	p.expect("narrowing re-Assign", resetRound(2), logOf(0, bid{0, 0, 7}, bid{0, 1, 8}))
	k2.mu.Lock()
	quit := k2.quit
	k2.mu.Unlock()
	if !quit {
		t.Fatal("the surplus kid was not shut down")
	}
}

// TestInteriorRejectsBadDigest: a kid answering an execution with a log
// its parent could not open — a bid outside the kid's range, a round the
// execution does not have, rounds or ids out of order, an empty group, a
// truncated log — or with a frame that is no bid log at all, a shard
// digest among them, kills the interior before it answers anything: its
// parent sees the link die, as for any failed subtree. (The name is from
// when a kid answered with a digest of its winners; the id stays.)
func TestInteriorRejectsBadDigest(t *testing.T) {
	good := logOf(0, bid{0, 1, 50}, bid{1, 2, 40})
	bad := []struct {
		name string
		log  []byte
	}{
		{"id outside the range", logOf(0, bid{0, 5, 99})},
		{"later id outside the range", logOf(0, bid{0, 1, 99}, bid{0, 4, 98})},
		{"id outside the range in a later round", logOf(0, bid{0, 1, 99}, bid{3, 7, 98})},
		{"round past the last", logOf(0, bid{0, 1, 99}, bid{5, 2, 98})},
		{"rounds descending", append(logOf(0, bid{2, 1, 9}), logOf(0, bid{1, 2, 9})[1:]...)},
		{"round repeated", append(logOf(0, bid{1, 1, 9}), logOf(0, bid{1, 2, 9})[1:]...)},
		{"id repeated", []byte{wire.TypeBidLog, 0, 2, 1, 18, 0, 16}},
		{"empty group", []byte{wire.TypeBidLog, 0, 0}},
		{"truncated", good[:len(good)-1]},
		{"shard digest", wire.ShardDigest{OK: true, ID: 1, Key: 99}.Append(nil)},
		{"reply", wire.Reply{TopViol: true}.Append(nil)},
	}
	for _, tc := range bad {
		for ki := range 2 {
			t.Run(fmt.Sprintf("%s/kid %d", tc.name, ki), func(t *testing.T) {
				p := newScriptedParent(t, 2)
				p.must(assign(0, 8)) // kids own [0, 4), [4, 8)
				p.kids[0].set(good)
				p.kids[1].set(logOf(4, bid{0, 5, 70}))
				p.expect("warm-up", resetRound(3), logOf(0, bid{0, 1, 50}, bid{0, 5, 70}, bid{1, 2, 40}))
				// A log's ids count from its host's first node, so the same
				// bytes are as bad from either kid.
				p.kids[ki].set(tc.log)
				if _, err := p.send(wire.AppendBare(nil, wire.TypeResetBegin), resetRound(3).Append(nil)); err == nil {
					t.Fatal("the interior answered over a bad log")
				}
				if err := <-p.done; err == nil {
					t.Fatal("ServeInterior returned nil over a bad log")
				}
			})
		}
	}
}
