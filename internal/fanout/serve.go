package fanout

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Split returns the i-th of parts contiguous near-even sub-ranges of
// [lo, hi): the first (hi-lo) mod parts of them take one extra node. It
// is the one range layout of the system — the root splits [0, N) over its
// links with it, and every interior relay re-splits its assignment over
// its children the same way.
func Split(lo, hi, parts, i int) (int, int) {
	base, rem := (hi-lo)/parts, (hi-lo)%parts
	start := lo + i*base + min(i, rem)
	end := start + base
	if i < rem {
		end++
	}
	return start, end
}

// hungUp reports whether a serve-side link error is the coordinator
// hanging up — a pipe close or a TCP EOF after (or instead of) the
// Shutdown frame — which is a clean exit, not a server failure.
func hungUp(err error) bool {
	return errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF)
}

// ServeLoop is the receive half of every serve loop, leaf or relay: it
// hands each frame from the coordinator to step until step reports
// the conversation over (Shutdown), step fails, or the link hangs up (a
// clean exit, also before any engine attached). step answers the frame
// on the same link before returning: one frame in, one frame out.
func ServeLoop(link transport.Link, step func(frame []byte) (cont bool, err error)) error {
	for {
		frame, err := link.Recv()
		if err != nil {
			if hungUp(err) {
				return nil
			}
			return fmt.Errorf("fanout: serve loop: %w", err)
		}
		if cont, err := step(frame); err != nil || !cont {
			return err
		}
	}
}

// checkRound rejects a decoded Round frame no coordinator sends: the codec
// takes any tag byte, bound and winner count, and the bank, the host
// executions and the relays' replays panic on the ones the protocol has no
// meaning for, so every server stops them here.
func checkRound(m wire.Round) error {
	if !coord.ValidTag(m.Tag) || m.Bound <= 0 || m.Want < 1 || m.Want > m.Bound {
		return fmt.Errorf("fanout: round frame with cohort tag %d, population bound %d, %d winners wanted", m.Tag, m.Bound, m.Want)
	}
	return nil
}

// RoundFunc answers one wire.Round command against a leaf's node bank,
// appending the answer frame to dst: the serving-side counterpart of Exec.
// Serve's is LogRound; ServeWith takes another, for a test's host.
type RoundFunc func(bank *coord.Nodes, m wire.Round, dst []byte) []byte

// server is one serve loop, a relay's when relay is set and a leaf's
// otherwise, and what the two share: the rule that an Assign comes first,
// the Ready and StatsPoll answers, the batch decode, and the reply frame
// staged in the buffer the link lends.
type server struct {
	leaf  leaf   // a node host: a bank of the assigned range
	relay *relay // a relay: a fan over the child subtrees

	assigned bool
	batch    wire.Batch // reusable decode scratch for batched commands
	replies  Frames     // the replies to the incoming frame's commands
	buf      []byte     // the outgoing frame, in replies' buffer
}

// respond processes one incoming transport frame — an Assign, a
// StatsPoll, a single command, or a wire.Batch of commands from a
// pipelined coordinator — and stages the outgoing frame in s.buf. A batch
// of n commands is answered by a batch of the n corresponding replies, so
// the link still carries one frame back per frame in and the coordinator
// can account every coordination message individually. It returns false
// for Shutdown (bare or inside a batch, where no reply is owed).
func (s *server) respond(frame []byte) (cont bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return false, err
	}
	s.replies.Reset()
	batched := false
	switch {
	case typ == wire.TypeAssign:
		// The opening assignment, or a mid-stream reassignment (failover
		// or a joining peer): rebuild what the server hosts for the range
		// and ack with Ready. The coordinator quiesces the link first, so
		// an Assign never arrives inside a batch.
		a, err := wire.DecodeAssign(frame)
		if err != nil {
			return false, fmt.Errorf("fanout: bad assignment: %w", err)
		}
		if s.relay != nil {
			err = s.relay.assign(a)
		} else {
			err = s.leaf.assign(a)
		}
		if err != nil {
			return false, err
		}
		s.assigned = true
		s.replies.Add(ready)
	case !s.assigned:
		return false, fmt.Errorf("fanout: frame type 0x%02x before any assignment", typ)
	case typ == wire.TypeStatsPoll:
		// Diagnostics, never batched: a leaf drives no links, a relay adds
		// its child-facing ledger to its subtree's levels (Fan.TreeStats).
		if err := wire.DecodeBare(frame, wire.TypeStatsPoll); err != nil {
			return false, err
		}
		var sum wire.TreeStats
		if s.relay != nil {
			if sum, err = s.relay.fan.TreeStats(); err != nil {
				return false, err
			}
		}
		s.replies.Add(sum.Append)
	default:
		var subs [][]byte
		if subs, batched, err = Subframes(&s.batch, frame); err != nil {
			return false, err
		}
		if s.relay != nil {
			cont, err = s.relay.answer(subs, &s.replies)
		} else {
			cont, err = s.leaf.answer(subs, &s.replies)
		}
		if err != nil || !cont {
			return false, err
		}
	}
	s.buf = s.replies.Frame(batched)
	return true, nil
}

// ready encodes the answer to an Assign.
func ready(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeReady) }

// serve runs s's serve loop on link: it waits for the coordinator's
// Assign and then answers every frame with exactly one frame until the
// coordinator sends Shutdown (nil return) or the link dies. The
// coordinator hanging up is also a clean exit: the engine closes links
// right after the shutdown frames.
func serve(link transport.Link, s *server) error {
	s.replies = NewFrames(link)
	return ServeLoop(link, func(frame []byte) (bool, error) {
		cont, err := s.respond(frame)
		if err != nil || !cont {
			return false, err
		}
		err = s.replies.link.SendLent(s.buf)
		s.replies.Reset()
		if err != nil {
			// The coordinator tearing the link down between our Recv and
			// this reply is a hang-up, not a server failure.
			if hungUp(err) {
				return false, nil
			}
			return false, fmt.Errorf("fanout: sending reply: %w", err)
		}
		return true, nil
	})
}

// Serve runs a leaf — a node host — on one link to its parent, the root
// or a relay: it builds the node range the Assign names and answers
// observation slices with violation-flag Replies, Round frames with its
// bid log (LogRound), installs with empty Replies and batches with
// batches. Serve never shares state with other goroutines; a process can
// host several ranges by running one Serve per link.
func Serve(link transport.Link) error { return ServeWith(link, LogRound()) }

// ServeWith is Serve with every Round frame answered by round.
func ServeWith(link transport.Link, round RoundFunc) error {
	return serve(link, &server{leaf: leaf{round: round}})
}

// leaf is one peer's node range: a coord.Nodes bank holding exactly the
// paper's per-node state.
type leaf struct {
	bank  *coord.Nodes // nil until the first Assign
	round RoundFunc
}

// assign builds the bank of an assignment. The bank flips for its nodes
// the coins core.NewOn's does — a function of the seed and the node's
// global id — whenever it is built: at the start, or for a dead peer's
// range after a failover.
func (s *leaf) assign(a wire.Assign) (err error) {
	s.bank, err = newBank(a)
	return err
}

// answer handles the commands one by one, each reply encoded in place.
func (s *leaf) answer(subs [][]byte, replies *Frames) (cont bool, err error) {
	for _, sub := range subs {
		replies.Add(func(dst []byte) []byte {
			dst, cont, err = s.handle(sub, dst)
			return dst
		})
		if err != nil || !cont {
			return false, err
		}
	}
	return true, nil
}

// newBank validates an assignment and builds its node bank.
func newBank(a wire.Assign) (*coord.Nodes, error) {
	if a.N <= 0 || a.K < 1 || a.K > a.N {
		return nil, fmt.Errorf("fanout: bad assignment n=%d k=%d", a.N, a.K)
	}
	if a.Lo < 0 || a.Hi > a.N || a.Lo >= a.Hi || a.Hi-a.Lo > math.MaxInt32 {
		return nil, fmt.Errorf("fanout: bad assignment range [%d, %d) of %d", a.Lo, a.Hi, a.N)
	}
	tol, err := order.TolFromNum(a.EpsNum)
	if err != nil {
		return nil, fmt.Errorf("fanout: bad assignment: %w", err)
	}
	return coord.NewNodes(a.N, a.Lo, a.Hi, a.Seed, false, tol), nil
}

// handle processes one command and appends its reply to dst, returning
// the extended slice. It returns false for TypeShutdown.
func (s *leaf) handle(frame, dst []byte) (out []byte, cont bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return dst, false, err
	}
	var rep wire.Reply // violation flags; empty for the ack-only installs
	lo, hi := s.bank.Lo(), s.bank.Hi()

	switch typ {
	// An observation frame is applied where it lies, the receive buffer: no
	// decoded column stands between the link and the bank. What is wrong
	// with one — framing, a value count that is not the range's width, an id
	// or a value out of range — surfaces as a serve-loop error (the
	// coordinator sees the link die), never as a panic.
	case wire.TypeObserve:
		obs, err := wire.OpenObserve(frame)
		if err != nil {
			return dst, false, err
		}
		if rep.TopViol, rep.OutViol, err = s.bank.ObserveStream(&obs); err != nil {
			return dst, false, err
		}

	case wire.TypeObserveDelta:
		delta, err := wire.OpenObserveDelta(frame)
		if err != nil {
			return dst, false, err
		}
		if rep.TopViol, rep.OutViol, err = s.bank.ObserveDeltaStream(&delta); err != nil {
			return dst, false, err
		}

	case wire.TypeRound:
		m, err := wire.DecodeRound(frame)
		if err != nil {
			return dst, false, err
		}
		if err := checkRound(m); err != nil {
			return dst, false, err
		}
		return s.round(s.bank, m, dst), true, nil

	case wire.TypeWinner:
		m, err := wire.DecodeWinner(frame)
		if err != nil {
			return dst, false, err
		}
		if m.Target < lo || m.Target >= hi {
			return dst, false, fmt.Errorf("fanout: winner %d outside range [%d, %d)", m.Target, lo, hi)
		}
		s.bank.Winner(m.Target, m.IsTop)

	case wire.TypeMidpoint:
		m, err := wire.DecodeMidpoint(frame)
		if err != nil {
			return dst, false, err
		}
		s.bank.Midpoint(order.Key(m.Mid), m.Full)

	case wire.TypeApproxBounds:
		m, err := wire.DecodeApproxBounds(frame)
		if err != nil {
			return dst, false, err
		}
		s.bank.ApplyBounds(order.Key(m.Lo), order.Key(m.Hi))

	case wire.TypeResetBegin:
		if err := wire.DecodeBare(frame, wire.TypeResetBegin); err != nil {
			return dst, false, err
		}
		s.bank.ResetBegin()

	case wire.TypeShutdown:
		return dst, false, nil

	default:
		return dst, false, fmt.Errorf("%w: 0x%02x in serve loop", wire.ErrUnknownType, typ)
	}
	return rep.Append(dst), true, nil
}
