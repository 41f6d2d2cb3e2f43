package shardrun

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/transport"
	"repro/internal/wire"
)

// kid is an interior relay's view of one child subtree link: the absolute
// node range the subtree serves, plus the staging arena that assembles
// the child's share of the current exchange. The reply views alias the
// child's receive buffer and stay valid until that link's next Recv,
// which relay guarantees happens only after the exchange is combined.
type kid struct {
	link   transport.Link
	lo, hi int  // absolute node range served by the subtree
	head   head // the subtree's last TagReset answer; see stale

	batch wire.Batch // decode scratch for batched replies

	stage   []byte   // staged outgoing sub-frames (arena)
	lens    []int    // sub-frame lengths within the arena
	views   [][]byte // scratch for assembling the outgoing batch
	replies [][]byte // reply sub-frames of the current exchange
	cursor  int      // next reply sub-frame to consume
}

// stageRaw stages one pre-encoded sub-frame verbatim.
func (k *kid) stageRaw(frame []byte) {
	k.stage = append(k.stage, frame...)
	k.lens = append(k.lens, len(frame))
}

// stageEnc stages one sub-frame produced by an append-encoder.
func (k *kid) stageEnc(enc func([]byte) []byte) {
	old := len(k.stage)
	k.stage = enc(k.stage)
	k.lens = append(k.lens, len(k.stage)-old)
}

// stale invalidates the child's head: a frame that can change its answer
// to a TagReset execution is being staged for it (the rule is head's).
func (k *kid) stale() { k.head.fresh = false }

// next consumes this child's next reply sub-frame.
func (k *kid) next() []byte {
	f := k.replies[k.cursor]
	k.cursor++
	return f
}

// planEntry records, for one parent sub-frame, which children contribute
// replies and how to combine them (digest merge for Round, flag OR for
// everything else).
type planEntry struct {
	typ     byte
	tag     uint8 // Round only: selects the merge direction
	targets []int // kid indices sent the sub-frame (so owing a reply), ascending
}

// interior is one relay level of the coordinator tree: it owns no node
// bank and makes no protocol decisions. It re-splits assignments, routes
// commands down, and folds replies up — violation flags by OR, shard
// digests by the same associative merge the root applies (charge sums plus
// the first-in-order extremum), so a subtree is externally
// indistinguishable from a single wider shard. Its only protocol state is
// one head per child — the child's last TagReset answer, kept so a
// FILTERRESET extraction re-asks only the child whose answer can have
// changed (see head) — invalidated by nothing but the frames this relay
// itself stages for that child. Beyond that it keeps the child ranges and
// a comm.Counter over the child-facing coordination frames, reported one
// LevelIO per tree level through the StatsPoll diagnostic exchange.
type interior struct {
	parent  transport.Link
	kids    []*kid
	lo, hi  int          // currently assigned absolute range
	counter comm.Counter // child-facing coordination traffic (one tree level)

	obs   wire.Observe      // decode scratch
	delta wire.ObserveDelta //
	batch wire.Batch        // decode scratch for parent batches
	stats wire.TreeStats    // decode scratch for child stats replies

	plan  []planEntry
	one   [][]byte // single-frame relay scratch
	buf   []byte   // outgoing parent frame (or reply arena for batches)
	bbuf  []byte   // batch-envelope encode scratch
	rlens []int    // reply sub-frame lengths within buf
	views [][]byte // scratch for assembling the parent batch reply
	ids   []int    // per-child delta routing scratch
	vals  []int64  //

	sum wire.TreeStats // stats aggregation scratch
}

// owner returns the index of the child subtree owning node id, or -1.
func (r *interior) owner(id int) int {
	for ki, k := range r.kids {
		if id >= k.lo && id < k.hi {
			return ki
		}
	}
	return -1
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
	pe.tag = 0
	pe.targets = pe.targets[:0]
	return pe
}

// shutdown forwards Shutdown to the given children and closes their links,
// so leaves exit their serve loops cleanly before the pipes go away.
func (r *interior) shutdown(kids []*kid) {
	for _, k := range kids {
		//lint:topk chargedsend Shutdown is a teardown control frame outside the model; nothing is charged once the subtree is being dismantled
		_ = k.link.Send(wire.AppendBare(r.bbuf[:0], wire.TypeShutdown))
		_ = transport.Flush(k.link)
		_ = k.link.Close()
	}
}

// reassign handles an Assign from the parent: re-split the range among
// the children with the same fanout.Split rule the root uses, run the
// Assign/Ready handshake down the subtree, and ack Ready up. An
// assignment narrower than the child count shuts the surplus children
// down for good — the subsequent re-split keeps every survivor non-empty
// (mid-stream narrowing happens only through root-side range merges,
// which never widen again).
func (r *interior) reassign(m wire.Assign) error {
	width := m.Hi - m.Lo
	if width <= 0 {
		return fmt.Errorf("shardrun: interior assigned empty range [%d, %d)", m.Lo, m.Hi)
	}
	if width < len(r.kids) {
		r.shutdown(r.kids[width:])
		r.kids = r.kids[:width]
	}
	r.lo, r.hi = m.Lo, m.Hi
	ka := m // per-child assignment: same population, narrower range
	for i, k := range r.kids {
		k.stale() // the subtree rebuilds its banks
		k.lo, k.hi = fanout.Split(m.Lo, m.Hi, len(r.kids), i)
		ka.Lo, ka.Hi = k.lo, k.hi
		r.buf = ka.Append(r.buf[:0])
		if err := k.link.Send(r.buf); err != nil {
			return fmt.Errorf("shardrun: interior assign [%d, %d): %w", k.lo, k.hi, err)
		}
		if err := transport.Flush(k.link); err != nil {
			return fmt.Errorf("shardrun: interior assign [%d, %d): %w", k.lo, k.hi, err)
		}
		r.counter.RecordSized(comm.Down, 1, int64(len(r.buf)))
	}
	for _, k := range r.kids {
		frame, err := k.link.Recv()
		if err != nil {
			return fmt.Errorf("shardrun: interior ready [%d, %d): %w", k.lo, k.hi, err)
		}
		if err := wire.DecodeBare(frame, wire.TypeReady); err != nil {
			return fmt.Errorf("shardrun: interior ready [%d, %d): %w", k.lo, k.hi, err)
		}
		r.counter.RecordSized(comm.Up, 1, int64(len(frame)))
	}
	r.buf = wire.AppendBare(r.buf[:0], wire.TypeReady)
	return nil
}

// pollStats answers the StatsPoll diagnostic: gather every child's
// TreeStats, sum the per-level IO of the deeper levels elementwise, and
// append this relay's own child-facing counter as one more level (deepest
// level first). The poll exchange itself is deliberately not charged
// anywhere — diagnostics must not perturb the numbers they report — so it
// is visible only in the transport statistics.
func (r *interior) pollStats() error {
	for _, k := range r.kids {
		//lint:topk chargedsend StatsPoll is deliberately uncharged diagnostics: polling must not perturb the ledgers it reports (see pollStats doc)
		if err := k.link.Send(wire.AppendBare(r.bbuf[:0], wire.TypeStatsPoll)); err != nil {
			return fmt.Errorf("shardrun: interior stats poll: %w", err)
		}
		if err := transport.Flush(k.link); err != nil {
			return fmt.Errorf("shardrun: interior stats poll: %w", err)
		}
	}
	r.sum.Levels = r.sum.Levels[:0]
	for _, k := range r.kids {
		frame, err := k.link.Recv()
		if err != nil {
			return fmt.Errorf("shardrun: interior stats reply: %w", err)
		}
		if err := r.stats.Decode(frame); err != nil {
			return fmt.Errorf("shardrun: interior stats reply: %w", err)
		}
		r.sum.Merge(r.stats)
	}
	r.sum.Levels = append(r.sum.Levels, wire.LevelIO{
		Down:      r.counter.Get(comm.Down),
		Up:        r.counter.Get(comm.Up),
		DownBytes: r.counter.GetBytes(comm.Down),
		UpBytes:   r.counter.GetBytes(comm.Up),
	})
	r.buf = r.sum.Append(r.buf[:0])
	return nil
}

// mergeDigests answers one Round sub-frame exactly as the root's execMerge
// does: the children it was sent to contribute their reply, the others
// (TagReset only) their standing head, all in child order.
func (r *interior) mergeDigests(pe *planEntry) (wire.ShardDigest, error) {
	d := digest{tag: pe.tag}
	targets := pe.targets
	for ki, k := range r.kids {
		var answer []byte
		if len(targets) > 0 && targets[0] == ki {
			answer, targets = k.next(), targets[1:]
		}
		if err := d.fold(ki, &k.head, answer, k.lo, k.hi); err != nil {
			return d.ShardDigest, fmt.Errorf("shardrun: interior digest [%d, %d): %w", k.lo, k.hi, err)
		}
	}
	return d.ShardDigest, nil
}

// relay routes one parent exchange — a single command or the sub-frames
// of a batch — through the subtree in three pipelined strokes: stage
// every child's share, fan everything out (so sibling subtrees work
// concurrently), then gather and combine in child order. Each child
// receives at most one frame per parent frame, preserving the one
// outstanding frame per link invariant at every level, and a batch of n
// commands costs one round trip per tree level instead of n.
func (r *interior) relay(frames [][]byte, batched bool) (cont bool, err error) {
	for _, k := range r.kids {
		k.stage, k.lens = k.stage[:0], k.lens[:0]
	}
	r.plan = r.plan[:0]
	for _, sub := range frames {
		typ, err := wire.MsgType(sub)
		if err != nil {
			return false, err
		}
		pe := r.entry(typ)
		switch typ {
		case wire.TypeResetBegin:
			if err := wire.DecodeBare(sub, wire.TypeResetBegin); err != nil {
				return false, err
			}
			for ki, k := range r.kids {
				k.stale()
				k.stageRaw(sub)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeMidpoint:
			if _, err := wire.DecodeMidpoint(sub); err != nil {
				return false, err
			}
			for ki := range r.kids {
				r.kids[ki].stageRaw(sub)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeApproxBounds:
			if _, err := wire.DecodeApproxBounds(sub); err != nil {
				return false, err
			}
			for ki := range r.kids {
				r.kids[ki].stageRaw(sub)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeWinner:
			m, err := wire.DecodeWinner(sub)
			if err != nil {
				return false, err
			}
			ki := r.owner(m.Target)
			if ki < 0 {
				return false, fmt.Errorf("shardrun: winner %d outside interior range [%d, %d)", m.Target, r.lo, r.hi)
			}
			r.kids[ki].stale()
			r.kids[ki].stageRaw(sub)
			pe.targets = append(pe.targets, ki)

		case wire.TypeObserve:
			if err := r.obs.Decode(sub); err != nil {
				return false, err
			}
			if len(r.obs.Vals) != r.hi-r.lo {
				return false, fmt.Errorf("shardrun: observe carries %d values for interior range [%d, %d)", len(r.obs.Vals), r.lo, r.hi)
			}
			for ki, k := range r.kids {
				k.stale()
				k.stageEnc(wire.Observe{Step: r.obs.Step, Vals: r.obs.Vals[k.lo-r.lo : k.hi-r.lo]}.Append)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeObserveDelta:
			if err := r.delta.Decode(sub); err != nil {
				return false, err
			}
			for _, id := range r.delta.IDs {
				if id < r.lo || id >= r.hi {
					return false, fmt.Errorf("shardrun: delta id %d outside interior range [%d, %d)", id, r.lo, r.hi)
				}
			}
			for ki, k := range r.kids {
				r.ids, r.vals = r.ids[:0], r.vals[:0]
				for j, id := range r.delta.IDs {
					if id >= k.lo && id < k.hi {
						r.ids = append(r.ids, id)
						r.vals = append(r.vals, r.delta.Vals[j])
					}
				}
				if len(r.ids) == 0 {
					continue
				}
				k.stale()
				k.stageEnc(wire.ObserveDelta{Step: r.delta.Step, IDs: r.ids, Vals: r.vals}.Append)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeRound:
			m, err := wire.DecodeRound(sub)
			if err != nil {
				return false, err
			}
			pe.tag = m.Tag
			for ki, k := range r.kids {
				if m.Tag == coord.TagReset {
					if k.head.fresh {
						continue // its head stands: nothing staged for it since it answered
					}
					// Fresh from here on: by the time a later sub-frame's
					// answer is merged, this one's reply is the head.
					k.head.fresh = true
				}
				k.stageRaw(sub)
				pe.targets = append(pe.targets, ki)
			}

		case wire.TypeShutdown:
			r.shutdown(r.kids)
			return false, nil

		default:
			return false, fmt.Errorf("%w: 0x%02x in interior relay", wire.ErrUnknownType, typ)
		}
	}

	// Fan out: every child subtree starts working before the first reply
	// is awaited. The envelope buffer is reusable across children because
	// the transport consumes the frame synchronously in Send.
	for _, k := range r.kids {
		n := len(k.lens)
		if n == 0 {
			continue
		}
		out := k.stage
		if n > 1 {
			k.views = k.views[:0]
			off := 0
			for _, l := range k.lens {
				k.views = append(k.views, k.stage[off:off+l])
				off += l
			}
			r.bbuf = wire.Batch{Frames: k.views}.Append(r.bbuf[:0])
			out = r.bbuf
		}
		for _, l := range k.lens {
			r.counter.RecordSized(comm.Down, 1, int64(l))
		}
		if err := k.link.Send(out); err != nil {
			return false, fmt.Errorf("shardrun: interior send [%d, %d): %w", k.lo, k.hi, err)
		}
		if err := transport.Flush(k.link); err != nil {
			return false, fmt.Errorf("shardrun: interior send [%d, %d): %w", k.lo, k.hi, err)
		}
	}

	for _, k := range r.kids {
		n := len(k.lens)
		k.cursor = 0
		k.replies = k.replies[:0]
		if n == 0 {
			continue
		}
		frame, err := k.link.Recv()
		if err != nil {
			return false, fmt.Errorf("shardrun: interior gather [%d, %d): %w", k.lo, k.hi, err)
		}
		if n == 1 {
			k.replies = append(k.replies, frame)
		} else {
			if err := k.batch.Decode(frame); err != nil {
				return false, fmt.Errorf("shardrun: interior gather [%d, %d): %w", k.lo, k.hi, err)
			}
			if got := len(k.batch.Frames); got != n {
				return false, fmt.Errorf("shardrun: interior gather [%d, %d): batched reply carries %d frames, want %d", k.lo, k.hi, got, n)
			}
			k.replies = append(k.replies, k.batch.Frames...)
		}
		for _, rf := range k.replies {
			r.counter.RecordSized(comm.Up, 1, int64(len(rf)))
		}
	}

	r.buf, r.rlens = r.buf[:0], r.rlens[:0]
	var rep wire.Reply
	for i := range r.plan {
		pe := &r.plan[i]
		old := len(r.buf)
		if pe.typ == wire.TypeRound {
			d, err := r.mergeDigests(pe)
			if err != nil {
				return false, err
			}
			r.buf = d.Append(r.buf)
		} else {
			topViol, outViol := false, false
			for _, ki := range pe.targets {
				k := r.kids[ki]
				if err := rep.Decode(k.next()); err != nil {
					return false, fmt.Errorf("shardrun: interior reply [%d, %d): %w", k.lo, k.hi, err)
				}
				topViol = topViol || rep.TopViol
				outViol = outViol || rep.OutViol
			}
			r.buf = wire.Reply{TopViol: topViol, OutViol: outViol}.Append(r.buf)
		}
		r.rlens = append(r.rlens, len(r.buf)-old)
	}
	if batched {
		r.views = r.views[:0]
		off := 0
		for _, l := range r.rlens {
			r.views = append(r.views, r.buf[off:off+l])
			off += l
		}
		// The sub-frames alias r.buf; assemble the envelope elsewhere and
		// swap so r.buf holds the outgoing frame on return.
		r.bbuf = wire.Batch{Frames: r.views}.Append(r.bbuf[:0])
		r.buf, r.bbuf = r.bbuf, r.buf
	}
	return true, nil
}

// respond processes one parent frame and stages the outgoing frame in
// r.buf. It returns false for Shutdown (children already shut down, no
// reply owed).
func (r *interior) respond(frame []byte) (cont bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return false, err
	}
	switch typ {
	case wire.TypeAssign:
		m, err := wire.DecodeAssign(frame)
		if err != nil {
			return false, err
		}
		return true, r.reassign(m)
	case wire.TypeStatsPoll:
		if err := wire.DecodeBare(frame, wire.TypeStatsPoll); err != nil {
			return false, err
		}
		return true, r.pollStats()
	case wire.TypeShutdown:
		r.shutdown(r.kids)
		return false, nil
	case wire.TypeBatch:
		if err := r.batch.Decode(frame); err != nil {
			return false, err
		}
		return r.relay(r.batch.Frames, true)
	default:
		r.one = append(r.one[:0], frame)
		return r.relay(r.one, false)
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
	r := &interior{parent: parent}
	for _, c := range children {
		r.kids = append(r.kids, &kid{link: c})
	}
	defer func() {
		for _, k := range r.kids {
			_ = k.link.Close()
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
		if err := parent.Send(r.buf); err != nil {
			if fanout.HungUp(err) {
				return false, nil
			}
			return false, fmt.Errorf("shardrun: interior sending reply: %w", err)
		}
		return true, nil
	})
}
