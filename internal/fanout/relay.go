package fanout

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// planEntry records, for one parent sub-frame, which children contribute
// replies and how to combine them (a replay of their bid logs for Round,
// flag OR for everything else).
type planEntry struct {
	typ     byte
	round   wire.Round // Round only: the execution the children ran
	targets []int      // children sent the sub-frame (so owing a reply), ascending
}

// relay is one interior level of a coordinator tree: a Fan over its child
// links — the root's own ranges, queues, batch framing, send and gather
// paths, handshake, stats sweep and shutdown, with the direct drain (the
// relay already is the goroutine that overlaps its sibling subtrees) and a
// ledger that is this tree level's LevelIO — under a plan of what each
// parent sub-frame owes. It owns no node bank: it routes commands down by
// child range and folds replies up — violation flags by OR, bid logs by
// replaying them against the subtree's own exact running cut into the log
// one host of its range would write (replayLogs) — so a subtree is
// externally indistinguishable from a single wider host. It keeps no
// protocol state from one frame to the next. A link failure is not
// survived: it is returned, the serve loop ends, and the subtree unwinds.
type relay struct {
	fan    *Fan
	lo, hi int // currently assigned absolute range

	logs []wire.BidLog // the children's logs of one Round sub-frame
	sub  subtreeLog

	plan []planEntry
}

// ServeRelay runs one relay of a coordinator tree on a link to its
// parent: it waits for the parent's Assign, re-splits the range among its
// child subtrees, and from then on relays every command down and every
// folded reply up until the parent sends Shutdown or hangs up (both clean
// exits, closing the children so the whole subtree unwinds). Any child or
// protocol failure is returned after closing the children — the parent
// observes the dead link and handles the loss of the whole subtree through
// the regular failover path, exactly as it would a single dead leaf.
func ServeRelay(parent transport.Link, children []transport.Link) error {
	if len(children) == 0 {
		return errors.New("fanout: a relay needs at least one child")
	}
	defer func() {
		for _, c := range children {
			_ = c.Close()
		}
	}()
	r := &relay{}
	r.fan = newFan(children, r.fail)
	return serve(parent, &server{relay: r})
}

// fail is the relay's response to a failing child: the error, with the
// child's range.
func (r *relay) fail(ki int, op string, err error) error {
	lo, hi := r.fan.Range(ki)
	return fmt.Errorf("fanout: relay %s [%d, %d): %w", op, lo, hi, err)
}

// assign handles an Assign from the parent: the fan re-splits the range
// among the children with the rule the root uses and runs the Assign/Ready
// handshake down the subtree — an assignment narrower than the child count
// shuts the surplus children down for good (mid-stream narrowing happens
// only through root-side range merges, which never widen again).
func (r *relay) assign(m wire.Assign) error {
	if err := r.fan.Assign(m); err != nil {
		return err
	}
	r.lo, r.hi = m.Lo, m.Hi
	return nil
}

// entry appends a reused plan entry and returns it.
func (r *relay) entry(typ byte) *planEntry {
	if len(r.plan) < cap(r.plan) {
		r.plan = r.plan[:len(r.plan)+1]
	} else {
		r.plan = append(r.plan, planEntry{})
	}
	pe := &r.plan[len(r.plan)-1]
	pe.typ = typ
	pe.targets = pe.targets[:0]
	return pe
}

// to queues one sub-frame of pe for child ki.
func (r *relay) to(pe *planEntry, ki int, enc func([]byte) []byte) {
	r.fan.Queue(ki, enc)
	pe.targets = append(pe.targets, ki)
}

// toAll queues one broadcast sub-frame of pe for every child.
func (r *relay) toAll(pe *planEntry, enc func([]byte) []byte) {
	for ki := range r.fan.Peers() {
		r.to(pe, ki, enc)
	}
}

// replayLogs answers one Round sub-frame with the subtree's log: every
// child's bid log is opened where its reply lies — one that is malformed,
// or names a node outside the child's range or a round the execution does
// not have, fails the relay before anything is replayed — and replayed
// into the reply (subtreeLog).
func (r *relay) replayLogs(pe *planEntry, replies *Frames) error {
	rounds := protocol.Rounds(pe.round.Bound)
	r.logs = r.logs[:0]
	for _, ki := range pe.targets {
		lo, hi := r.fan.Range(ki)
		r.logs = append(r.logs, wire.BidLog{})
		if err := r.logs[len(r.logs)-1].Open(r.fan.Next(ki), lo, hi, rounds); err != nil {
			return r.fail(ki, "bid log", err)
		}
	}
	replies.Add(func(dst []byte) []byte { return r.sub.append(dst, r.lo, pe.round, r.logs) })
	clear(r.logs) // hold no reply frame past the exchange
	return nil
}

// answer routes the commands of one parent frame through the subtree in
// three strokes: queue every child's share, let the fan exchange them (one
// frame per involved child, all sent before the first reply is awaited, so
// sibling subtrees work concurrently), then combine the replies in child
// order into one reply per command. Each child receives at most one frame
// per parent frame, preserving the one outstanding frame per link invariant
// at every level, and a batch of n commands costs one round trip per tree
// level instead of n. It returns false for Shutdown (children shut down, no
// reply owed).
func (r *relay) answer(frames [][]byte, replies *Frames) (cont bool, err error) {
	r.plan = r.plan[:0]
	for _, sub := range frames {
		typ, err := wire.MsgType(sub)
		if err != nil {
			return false, err
		}
		pe := r.entry(typ)
		raw := func(dst []byte) []byte { return append(dst, sub...) }
		switch typ {
		case wire.TypeResetBegin:
			if err := wire.DecodeBare(sub, wire.TypeResetBegin); err != nil {
				return false, err
			}
			r.toAll(pe, raw)

		case wire.TypeMidpoint:
			if _, err := wire.DecodeMidpoint(sub); err != nil {
				return false, err
			}
			r.toAll(pe, raw)

		case wire.TypeApproxBounds:
			if _, err := wire.DecodeApproxBounds(sub); err != nil {
				return false, err
			}
			r.toAll(pe, raw)

		case wire.TypeWinner:
			m, err := wire.DecodeWinner(sub)
			if err != nil {
				return false, err
			}
			ki := r.fan.Owner(m.Target)
			if ki < 0 {
				return false, fmt.Errorf("fanout: winner %d outside relay range [%d, %d)", m.Target, r.lo, r.hi)
			}
			r.to(pe, ki, raw)

		// An observation frame is split, not decoded: each child's frame is
		// a fresh header and its run of the parent's bytes (wire.Share),
		// every varint checked on the way past.
		case wire.TypeObserve:
			obs, err := wire.OpenObserve(sub)
			if err != nil {
				return false, err
			}
			if obs.Len() != r.hi-r.lo {
				return false, fmt.Errorf("fanout: observe carries %d values for relay range [%d, %d)", obs.Len(), r.lo, r.hi)
			}
			for ki := range r.fan.Peers() {
				lo, hi := r.fan.Range(ki)
				share, err := obs.Share(hi - lo)
				if err != nil {
					return false, err
				}
				r.to(pe, ki, share.Append)
			}
			if err := obs.Close(); err != nil {
				return false, err
			}

		case wire.TypeObserveDelta:
			delta, err := wire.OpenObserveDelta(sub)
			if err != nil {
				return false, err
			}
			// The codec guarantees strictly increasing ids, so a first one
			// inside the range and none left behind the last child bound
			// them all.
			below, err := delta.Share(r.lo)
			if err != nil {
				return false, err
			}
			if below.Count > 0 {
				return false, fmt.Errorf("fanout: delta id %d outside relay range [%d, %d)", below.First, r.lo, r.hi)
			}
			for ki := range r.fan.Peers() {
				_, hi := r.fan.Range(ki)
				share, err := delta.Share(hi)
				if err != nil {
					return false, err
				}
				if share.Count > 0 {
					r.to(pe, ki, share.Append)
				}
			}
			if delta.Len() > 0 {
				return false, fmt.Errorf("fanout: delta ids beyond relay range [%d, %d)", r.lo, r.hi)
			}
			if err := delta.Close(); err != nil {
				return false, err
			}

		case wire.TypeRound:
			m, err := wire.DecodeRound(sub)
			if err != nil {
				return false, err
			}
			if err := checkRound(m); err != nil {
				return false, err
			}
			pe.round = m
			r.toAll(pe, raw)

		case wire.TypeShutdown:
			r.fan.Close()
			return false, nil

		default:
			return false, fmt.Errorf("%w: 0x%02x in relay", wire.ErrUnknownType, typ)
		}
	}

	if err := r.fan.Exchange("relay"); err != nil {
		return false, err
	}

	for i := range r.plan {
		pe := &r.plan[i]
		if pe.typ == wire.TypeRound {
			if err := r.replayLogs(pe, replies); err != nil {
				return false, err
			}
			continue
		}
		topViol, outViol := false, false
		for _, ki := range pe.targets {
			rep, err := r.fan.Reply(ki, "reply")
			if err != nil {
				return false, err
			}
			topViol = topViol || rep.TopViol
			outViol = outViol || rep.OutViol
		}
		replies.Add(wire.Reply{TopViol: topViol, OutViol: outViol}.Append)
	}
	return true, nil
}
