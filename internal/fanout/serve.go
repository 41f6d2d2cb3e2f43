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

// HungUp reports whether a serve-side link error is the coordinator
// hanging up — a pipe close or a TCP EOF after (or instead of) the
// Shutdown frame — which is a clean exit, not a server failure.
func HungUp(err error) bool {
	return errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF)
}

// ServeLoop is the receive half of every serve loop, leaf or interior:
// it hands each frame from the coordinator to step until step reports
// the conversation over (Shutdown), step fails, or the link hangs up (a
// clean exit, also before any engine attached). step answers the frame
// on the same link before returning: one frame in, one frame out.
func ServeLoop(link transport.Link, step func(frame []byte) (cont bool, err error)) error {
	for {
		frame, err := link.Recv()
		if err != nil {
			if HungUp(err) {
				return nil
			}
			return fmt.Errorf("fanout: serve loop: %w", err)
		}
		if cont, err := step(frame); err != nil || !cont {
			return err
		}
	}
}

// CheckRound rejects a decoded Round frame no coordinator sends: the codec
// takes any tag byte, bound and winner count, and the bank, the host
// executions and the relays' replays panic on the ones the protocol has no
// meaning for, so every server stops them here.
func CheckRound(m wire.Round) error {
	if !coord.ValidTag(m.Tag) || m.Bound <= 0 || m.Want < 1 || m.Want > m.Bound {
		return fmt.Errorf("fanout: round frame with cohort tag %d, population bound %d, %d winners wanted", m.Tag, m.Bound, m.Want)
	}
	return nil
}

// RoundFunc answers one wire.Round command against a leaf's node bank,
// appending the answer frame to dst. It is the only per-substrate part of
// the leaf server: the serving-side counterpart of Exec.
type RoundFunc func(bank *coord.Nodes, m wire.Round, dst []byte) []byte

// leaf is one peer's node range — a coord.Nodes bank holding exactly the
// paper's per-node state — plus the reusable buffers of its serve loop.
type leaf struct {
	bank  *coord.Nodes // nil until the first Assign
	round RoundFunc

	batch wire.Batch // reusable decode scratch for batched commands

	replies Frames // the replies to the incoming frame's commands
	buf     []byte // the outgoing frame, in replies' buffer
}

// newLeaf returns a leaf, with no bank yet, answering on link.
func newLeaf(link transport.Link, round RoundFunc) *leaf {
	return &leaf{round: round, replies: NewFrames(link)}
}

// newBank validates an assignment and builds its node bank. The bank flips
// for its nodes the coins core.NewOn's does — a function of the seed and
// the node's global id — whenever it is built: at the start, or for a dead
// peer's range after a failover.
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

// handle processes one command frame and appends the outgoing reply frame
// to dst, returning the extended slice. It returns false for TypeShutdown.
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
		if err := CheckRound(m); err != nil {
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

	case wire.TypeStatsPoll:
		// Diagnostics: a leaf has no link counters of its own — interior
		// relays add a LevelIO entry per tree level on the way up.
		if err := wire.DecodeBare(frame, wire.TypeStatsPoll); err != nil {
			return dst, false, err
		}
		return wire.TreeStats{}.Append(dst), true, nil

	case wire.TypeShutdown:
		return dst, false, nil

	default:
		return dst, false, fmt.Errorf("%w: 0x%02x in serve loop", wire.ErrUnknownType, typ)
	}
	return rep.Append(dst), true, nil
}

// respond processes one incoming transport frame — an Assign, a single
// command, or a wire.Batch of commands from a pipelined coordinator — and
// stages the outgoing frame in s.buf, in the buffer the link lends. A
// batch of n commands is answered by a batch of the n corresponding
// replies, so the link still carries one frame back per frame in and the
// coordinator can account every coordination message individually. It
// returns false for TypeShutdown (bare or inside a batch, where no reply
// is owed).
func (s *leaf) respond(frame []byte) (cont bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return false, err
	}
	s.replies.Reset()
	if typ == wire.TypeAssign {
		// The opening assignment, or a mid-stream reassignment (failover
		// or a joining peer): build the bank from scratch for the range
		// and ack with Ready. The coordinator quiesces the link first, so
		// an Assign never arrives inside a batch.
		a, err := wire.DecodeAssign(frame)
		if err != nil {
			return false, fmt.Errorf("fanout: bad assignment: %w", err)
		}
		if s.bank, err = newBank(a); err != nil {
			return false, err
		}
		s.replies.Add(ready)
		s.buf = s.replies.Frame(false)
		return true, nil
	}
	if s.bank == nil {
		return false, fmt.Errorf("fanout: frame type 0x%02x before any assignment", typ)
	}
	subs, batched, err := Subframes(&s.batch, frame)
	if err != nil {
		return false, err
	}
	for _, sub := range subs {
		s.replies.Add(func(dst []byte) []byte {
			dst, cont, err = s.handle(sub, dst)
			return dst
		})
		if err != nil || !cont {
			return false, err
		}
	}
	s.buf = s.replies.Frame(batched)
	return true, nil
}

// ready encodes the answer to an Assign.
func ready(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeReady) }

// Serve runs the leaf server on one link: it waits for the coordinator's
// Assign, builds the local node range, and then answers every command
// with exactly one reply — observation slices with violation-flag
// Replies, Round frames with whatever round produces, installs with empty
// Replies, batches with batches — until the coordinator sends Shutdown
// (nil return) or the link dies. The coordinator hanging up is also a
// clean exit: the engine closes links right after the shutdown frames.
//
// Serve never shares state with other goroutines; a process can host
// several ranges by running one Serve per link.
func Serve(link transport.Link, round RoundFunc) error {
	s := newLeaf(link, round)
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
			if HungUp(err) {
				return false, nil
			}
			return false, fmt.Errorf("fanout: sending reply: %w", err)
		}
		return true, nil
	})
}
