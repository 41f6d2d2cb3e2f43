package shardrun

import (
	"errors"
	"fmt"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/transport"
	"repro/internal/wire"
)

// planEntry records, for one parent sub-frame, which children contribute
// replies and how to combine them (digest merge for Round, flag OR for
// everything else).
type planEntry struct {
	typ     byte
	tag     uint8 // Round only: selects the merge direction
	want    int   // Round only: how many winners the merge keeps
	targets []int // children sent the sub-frame (so owing a reply), ascending
}

// interior is one relay level of the coordinator tree: a fanout.Fan over
// its child links — the root's own ranges, queues, batch framing, send and
// gather paths, handshake, stats sweep and shutdown, with the direct drain
// (the relay already is the goroutine that overlaps its sibling subtrees)
// and a ledger that is this tree level's LevelIO — under a plan of what
// each parent sub-frame owes. It owns no node bank and makes no protocol
// decisions: it routes commands down by child range and folds replies up —
// violation flags by OR, shard digests by the same associative merge the
// root applies (charge sums plus the best of the children's winners, first
// in order on ties; see digest), so a subtree is externally
// indistinguishable from a single wider shard. It keeps no protocol state
// from one frame to the next. A link failure is not survived: it is
// returned, the serve loop ends, and the subtree unwinds.
type interior struct {
	fan    *fanout.Fan
	merge  digest // the running merge of one Round sub-frame's answers
	lo, hi int    // currently assigned absolute range

	batch wire.Batch // decode scratch for parent batches

	plan    []planEntry
	replies fanout.Frames // the folded replies to the parent frame's commands
	buf     []byte        // the outgoing parent frame, in replies' buffer
}

func newInterior(parent transport.Link, children []transport.Link) *interior {
	r := &interior{replies: fanout.NewFrames(parent)}
	r.fan = fanout.NewFan(children, r.fail)
	return r
}

// fail is the relay's response to a failing child: the error, with the
// child's range.
func (r *interior) fail(ki int, op string, err error) error {
	lo, hi := r.fan.Range(ki)
	return fmt.Errorf("shardrun: interior %s [%d, %d): %w", op, lo, hi, err)
}

// entry appends a reused plan entry and returns it.
func (r *interior) entry(typ byte) *planEntry {
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
func (r *interior) to(pe *planEntry, ki int, enc func([]byte) []byte) {
	r.fan.Queue(ki, enc)
	pe.targets = append(pe.targets, ki)
}

// toAll queues one broadcast sub-frame of pe for every child.
func (r *interior) toAll(pe *planEntry, enc func([]byte) []byte) {
	for ki := range r.fan.Peers() {
		r.to(pe, ki, enc)
	}
}

// reassign handles an Assign from the parent: the fan re-splits the range
// among the children with the rule the root uses and runs the Assign/Ready
// handshake down the subtree — an assignment narrower than the child count
// shuts the surplus children down for good (mid-stream narrowing happens
// only through root-side range merges, which never widen again) — and the
// relay acks Ready up.
func (r *interior) reassign(m wire.Assign) error {
	if err := r.fan.Assign(m); err != nil {
		return err
	}
	r.lo, r.hi = m.Lo, m.Hi
	r.replies.Add(func(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeReady) })
	r.buf = r.replies.Frame(false)
	return nil
}

// mergeDigests answers one Round sub-frame exactly as the root's execMerge
// does: every child's reply folded in child order, the merged winners and
// the summed charges one digest up.
func (r *interior) mergeDigests(pe *planEntry) (*wire.ShardDigest, error) {
	d := &r.merge
	d.begin(pe.want, coord.MinimumTag(pe.tag))
	for _, ki := range pe.targets {
		lo, hi := r.fan.Range(ki)
		if err := d.fold(lo, hi, r.fan.Next(ki)); err != nil {
			return nil, r.fail(ki, "digest", err)
		}
	}
	d.SetWinners(d.top.Winners())
	return &d.ShardDigest, nil
}

// relay routes the commands of one parent frame through the subtree in
// three strokes: queue every child's share, let the fan exchange them (one
// frame per involved child, all sent before the first reply is awaited, so
// sibling subtrees work concurrently), then combine the replies in child
// order into one reply per command. Each child receives at most one frame
// per parent frame, preserving the one outstanding frame per link invariant
// at every level, and a batch of n commands costs one round trip per tree
// level instead of n. It returns false for Shutdown (children shut down, no
// reply owed).
func (r *interior) relay(frames [][]byte, batched bool) (cont bool, err error) {
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
				return false, fmt.Errorf("shardrun: winner %d outside interior range [%d, %d)", m.Target, r.lo, r.hi)
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
				return false, fmt.Errorf("shardrun: observe carries %d values for interior range [%d, %d)", obs.Len(), r.lo, r.hi)
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
				return false, fmt.Errorf("shardrun: delta id %d outside interior range [%d, %d)", below.First, r.lo, r.hi)
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
				return false, fmt.Errorf("shardrun: delta ids beyond interior range [%d, %d)", r.lo, r.hi)
			}
			if err := delta.Close(); err != nil {
				return false, err
			}

		case wire.TypeRound:
			m, err := wire.DecodeRound(sub)
			if err != nil {
				return false, err
			}
			if err := fanout.CheckRound(m); err != nil {
				return false, err
			}
			pe.tag, pe.want = m.Tag, m.Want
			r.toAll(pe, raw)

		case wire.TypeShutdown:
			r.fan.Close()
			return false, nil

		default:
			return false, fmt.Errorf("%w: 0x%02x in interior relay", wire.ErrUnknownType, typ)
		}
	}

	if err := r.fan.Exchange("relay"); err != nil {
		return false, err
	}

	for i := range r.plan {
		pe := &r.plan[i]
		if pe.typ == wire.TypeRound {
			d, err := r.mergeDigests(pe)
			if err != nil {
				return false, err
			}
			r.replies.Add(d.Append)
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
		r.replies.Add(wire.Reply{TopViol: topViol, OutViol: outViol}.Append)
	}
	r.buf = r.replies.Frame(batched)
	return true, nil
}

// respond processes one parent frame and stages the outgoing frame in
// r.buf, in the buffer the parent link lends. It returns false for
// Shutdown (children already shut down, no reply owed).
func (r *interior) respond(frame []byte) (cont bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return false, err
	}
	r.replies.Reset()
	switch typ {
	case wire.TypeAssign:
		m, err := wire.DecodeAssign(frame)
		if err != nil {
			return false, err
		}
		return true, r.reassign(m)
	case wire.TypeStatsPoll:
		// The subtree's levels, with this relay's own child-facing ledger
		// as one more (see fanout.Fan.TreeStats).
		if err := wire.DecodeBare(frame, wire.TypeStatsPoll); err != nil {
			return false, err
		}
		sum, err := r.fan.TreeStats()
		if err != nil {
			return false, err
		}
		r.replies.Add(sum.Append)
		r.buf = r.replies.Frame(false)
		return true, nil
	default:
		subs, batched, err := fanout.Subframes(&r.batch, frame)
		if err != nil {
			return false, err
		}
		return r.relay(subs, batched)
	}
}

// ServeInterior runs one interior coordinator of the tree on a link to
// its parent: it waits for the parent's Assign, re-splits the range among
// its child subtrees, and from then on relays every command down and
// every folded reply up until the parent sends Shutdown or hangs up
// (both clean exits, closing the children so the whole subtree unwinds).
// Any child or protocol failure is returned after closing the children —
// the parent observes the dead link and handles the loss of the whole
// subtree through the regular failover path, exactly as it would a
// single dead shard.
func ServeInterior(parent transport.Link, children []transport.Link) error {
	if len(children) == 0 {
		return errors.New("shardrun: interior needs at least one child")
	}
	up := transport.Lending(parent)
	r := newInterior(up, children)
	defer func() {
		for _, c := range children {
			_ = c.Close()
		}
	}()
	first := true
	return fanout.ServeLoop(parent, func(frame []byte) (bool, error) {
		if first {
			if typ, terr := wire.MsgType(frame); terr != nil || typ != wire.TypeAssign {
				return false, fmt.Errorf("shardrun: interior expects an assignment first (type error %v)", terr)
			}
			first = false
		}
		cont, err := r.respond(frame)
		if err != nil || !cont {
			return false, err
		}
		err = up.SendLent(r.buf)
		r.replies.Reset()
		if err != nil {
			if fanout.HungUp(err) {
				return false, nil
			}
			return false, fmt.Errorf("shardrun: interior sending reply: %w", err)
		}
		return true, nil
	})
}
