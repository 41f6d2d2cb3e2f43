package fanout

import (
	"encoding/binary"
	"fmt"

	"repro/internal/comm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Frames is the arena one outgoing transport frame is built in — the
// commands deferred for one peer, or the replies to the commands of one
// incoming frame — and the one place sub-frames become a transport frame
// (Frame). The sub-frames are written once, in wire.Batch layout, into the
// buffer the arena's link lends (transport.Lender), behind room for the
// batch header: the frame goes out where it was encoded — moved once to
// the start of a buffer an encoder had to grow (from) — and the buffer
// follows the link's transport.Retention.
type Frames struct {
	link transport.Lender
	buf  []byte // [room][sub-frame][len][sub-frame]...; nil until the first Add
	lent []byte // what the link lent, where buf starts until an encoder grows it
	lens []int  // the sub-frames' lengths
}

// room is the space an arena keeps ahead of its first sub-frame: a batch
// tag, the sub-frame count and the first sub-frame's length, each varint at
// its longest.
const room = 1 + 2*binary.MaxVarintLen64

// NewFrames returns an empty arena whose frames link carries.
func NewFrames(link transport.Link) Frames {
	return Frames{link: transport.Lending(link)}
}

// Reset empties the arena. Its buffer is the link's: the one it lent, or
// the one a frame sent from it now owns.
func (a *Frames) Reset() {
	a.buf, a.lent, a.lens = nil, nil, a.lens[:0]
}

// begin borrows the arena's buffer from its link, the room reserved.
func (a *Frames) begin() {
	var ahead [room]byte
	a.lent = a.link.Lend()
	a.buf = append(a.lent, ahead[:]...)
}

// Add appends one sub-frame, produced by an append-encoder. A sub-frame
// after the first is written behind a byte for its length, and moved up
// when its length needs more: a sub-frame of 128 bytes or more that rides
// behind another is the one that is moved.
func (a *Frames) Add(enc func([]byte) []byte) {
	if a.buf == nil {
		a.begin()
	}
	later := len(a.lens) > 0
	start := len(a.buf)
	if later {
		a.buf = append(a.buf, 0)
		start++
	}
	a.buf = enc(a.buf)
	l := len(a.buf) - start
	a.lens = append(a.lens, l)
	if !later {
		return
	}
	if p := wire.SizeUvarint(uint64(l)); p > 1 {
		var pad [binary.MaxVarintLen64]byte
		a.buf = append(a.buf, pad[:p-1]...)
		copy(a.buf[start+p-1:], a.buf[start:start+l])
		start += p - 1
		wire.AppendUvarint(a.buf[start-p:start-p], uint64(l))
		return
	}
	a.buf[start-1] = byte(l)
}

// Frame returns the one transport frame carrying the held sub-frames, in
// the arena's buffer, for the arena's link to SendLent. A lone sub-frame
// goes out as it is; several — or any number when batch is set: a batch is
// answered by a batch — go out as one wire.Batch, whose header is written
// into the room ahead of them.
func (a *Frames) Frame(batch bool) []byte {
	if a.buf == nil {
		a.begin()
	}
	n := len(a.lens)
	if !batch && n == 1 {
		return a.from(room)
	}
	h := 1 + wire.SizeUvarint(uint64(n))
	if n > 0 {
		h += wire.SizeUvarint(uint64(a.lens[0]))
	}
	hdr := wire.AppendBatchHeader(a.buf[room-h:room-h], n)
	if n > 0 {
		wire.AppendUvarint(hdr, uint64(a.lens[0]))
	}
	return a.from(room - h)
}

// from returns the frame that starts at offset start of the arena's
// buffer. In a buffer that is not the lent one — an encoder grew it, and
// sized it to what it needed — the frame is first moved down to the
// buffer's start: the link adopts the buffer from where the frame starts,
// and a buffer that began behind the unused room would be that much short
// of the next frame of the same size.
func (a *Frames) from(start int) []byte {
	if cap(a.lent) > 0 && &a.buf[0] == &a.lent[:1][0] {
		return a.buf[start:]
	}
	return a.buf[:copy(a.buf, a.buf[start:])]
}

// Subframes is Frame's inverse on the serving side: the commands one
// incoming transport frame carries — a wire.Batch's sub-frames, or the
// frame itself — in b's storage, and whether it was a batch. The storage
// holds nothing of an earlier frame, in the slots this one leaves unused
// too: that frame's buffer may be one its link has let go
// (transport.Retention), and a stale slot would keep it alive.
func Subframes(b *wire.Batch, frame []byte) (subs [][]byte, batched bool, err error) {
	typ, err := wire.MsgType(frame)
	if err != nil {
		return nil, false, err
	}
	clear(b.Frames[:cap(b.Frames)])
	if typ != wire.TypeBatch {
		b.Frames = append(b.Frames[:0], frame)
		return b.Frames, false, nil
	}
	err = b.Decode(frame)
	return b.Frames, true, err
}

// recvResult is one reader goroutine's answer to a gather request.
type recvResult struct {
	frame []byte
	err   error
}

// peer is a fan's view of one link.
type peer struct {
	link   transport.Lender
	lo, hi int
	reply  wire.Reply // reusable decode target (Reply)

	// The frame to this peer being built: deferred commands ride in a
	// wire.Batch ahead of the next data-bearing command queued behind them,
	// or alone in the next Exchange.
	queue Frames

	// The reply to the last ship: want sub-frames are owed, and subs are
	// the gathered ones not yet consumed. They alias the link's receive
	// buffer, which is stable until the link's next Send or Recv — the next
	// ship or stats poll to this peer, by which time every one of them has
	// been consumed (or its step abandoned).
	want  int
	subs  [][]byte
	one   [1][]byte  // backs subs for a plain reply
	batch wire.Batch // decode target for a batched one

	// Reader gather: the reader goroutine performs one Recv per req
	// token and delivers the result (the frame aliases the link's receive
	// buffer, stable until the link's next Send or Recv — the fan's next
	// ship, after which it requests the reader's next Recv).
	req chan struct{}
	res chan recvResult

	// owed counts outstanding replies on the link: 1 from a ship until its
	// gather (the strict request/reply discipline keeps it 0 or 1). It is
	// how an exchange knows which peers it involved, and how recovery knows
	// whether a survivor's next frame is a stale reply to drain before the
	// reassignment handshake. dead and failures are the engine's failover
	// bookkeeping.
	owed     int
	dead     bool
	failures int64
}

// Fan is the coordinator side of a set of links, each leading to a peer
// that hosts a contiguous node range: everything about driving them that
// is not a protocol decision. It owns the ranges and the routing by range,
// the per-peer queues of deferred commands, the one send path (ship) and
// the one gather path (gather) with their batch framing and their
// one-frame-out, one-frame-back discipline, the ledger that prices every
// sub-frame crossing the links, the Assign/Ready handshake, the uncharged
// StatsPoll sweep and Shutdown. Engine (a root: Algorithm 1's machine,
// failover, checkpoints) and the relay (one frame from a parent in, one
// folded reply out) are both built on it, which is what makes a subtree
// indistinguishable from a wider leaf on the wire.
//
// The one thing a user passes in is its response to a link failure: every
// send, receive or framing error on peer pi is reported through fail, whose
// result the failing call returns.
type Fan struct {
	peers   []*peer
	fail    func(pi int, op string, err error) error
	ledger  comm.Counter // every sub-frame: commands Down, replies Up
	readers bool         // gathers wait on reader goroutines (see startReader)

	stats wire.TreeStats // decode scratch for stats polls
}

// newFan returns a fan over the given links, with no ranges assigned yet
// (see Assign) and gathers that drain the links directly.
func newFan(links []transport.Link, fail func(pi int, op string, err error) error) *Fan {
	f := &Fan{fail: fail}
	for _, link := range links {
		f.peers = append(f.peers, newPeer(link, 0, 0))
	}
	return f
}

// newPeer returns a fan's view of a link hosting [lo, hi).
func newPeer(link transport.Link, lo, hi int) *peer {
	p := &peer{lo: lo, hi: hi}
	p.attach(link)
	return p
}

// attach points the peer, and the frames it builds, at link.
func (p *peer) attach(link transport.Link) {
	p.queue = NewFrames(link)
	p.link = p.queue.link
}

// Peers returns the number of links.
func (f *Fan) Peers() int { return len(f.peers) }

// Range returns the node range [lo, hi) peer pi hosts.
func (f *Fan) Range(pi int) (lo, hi int) { return f.peers[pi].lo, f.peers[pi].hi }

// Owner returns the peer hosting node id, or -1.
func (f *Fan) Owner(id int) int {
	for pi, p := range f.peers {
		if id >= p.lo && id < p.hi {
			return pi
		}
	}
	return -1
}

// Share routes a sparse update whose ids are strictly increasing and
// inside the fan's ranges: swept once across the peers in order, peer pi's
// share of ids[start:] is ids[start:stop], the ids below its upper bound.
func (f *Fan) Share(pi int, ids []int, start int) (stop int) {
	stop = start
	for stop < len(ids) && ids[stop] < f.peers[pi].hi {
		stop++
	}
	return stop
}

// Queue encodes one command into the next frame to peer pi.
func (f *Fan) Queue(pi int, enc func([]byte) []byte) { f.peers[pi].queue.Add(enc) }

// startReader attaches a fresh reader goroutine to one peer. It performs
// exactly one Recv per request token, so the frame it delivered stays
// untouched until the fan sends on the link again — which it does only
// once it has consumed the frame, and before it asks for the next one.
// The result channel's capacity of one plus the owed <= 1 reply
// discipline guarantee the goroutine's final send never blocks, so
// closing the request channel (shutdown, or the peer's replacement during
// failover) always releases it.
//
// Readers only pay off when the runtime can run them in parallel: with a
// single processor their channel hops are pure context-switch overhead, so
// a fan without them drains the (already fanned-out) replies directly in
// peer order — the frames are in flight either way.
func startReader(p *peer) {
	p.req = make(chan struct{}, 1)
	p.res = make(chan recvResult, 1)
	go func(link transport.Link, req <-chan struct{}, res chan<- recvResult) {
		for range req {
			frame, err := link.Recv()
			//lint:topk ctxsend non-blocking: res has capacity 1 and the owed<=1 reply discipline guarantees a free slot; close(req) releases the loop
			res <- recvResult{frame: frame, err: err}
		}
	}(p.link, p.req, p.res)
}

// ship sends peer pi the frame its queue holds, charging every sub-frame
// to the ledger individually once the frame is on the link. The peer then
// owes one reply frame carrying one sub-frame per sub-frame shipped.
func (f *Fan) ship(pi int, op string) error {
	p := f.peers[pi]
	if err := p.link.SendLent(p.queue.Frame(false)); err != nil {
		return f.fail(pi, op, err)
	}
	if err := transport.Flush(p.link); err != nil {
		return f.fail(pi, op, err)
	}
	for _, l := range p.queue.lens {
		f.ledger.RecordSized(comm.Down, 1, int64(l))
	}
	p.want = len(p.queue.lens)
	p.queue.Reset()
	f.expect(p)
	return nil
}

// expect records that p owes one reply frame and starts its reader (if
// any) collecting it.
func (f *Fan) expect(p *peer) {
	p.owed = 1
	if p.req != nil {
		p.req <- struct{}{}
	}
}

// await collects the reply frame peer pi owes: from its reader goroutine
// when one is running, directly off the link otherwise (the fan-out
// already happened, so the frame is en route either way).
func (f *Fan) await(pi int, op string) ([]byte, error) {
	p := f.peers[pi]
	var r recvResult
	if p.res != nil {
		r = <-p.res
	} else {
		r.frame, r.err = p.link.Recv()
	}
	p.owed = 0
	if r.err != nil {
		return nil, f.fail(pi, op, r.err)
	}
	return r.frame, nil
}

// gather collects peer pi's reply to the last ship and splits it into the
// sub-frames it must carry, one per sub-frame shipped, charging each to the
// ledger. Gathers are consumed in ascending peer order.
func (f *Fan) gather(pi int, op string) ([][]byte, error) {
	p := f.peers[pi]
	frame, err := f.await(pi, op)
	if err != nil {
		return nil, err
	}
	p.one[0], p.subs = frame, p.one[:]
	if p.want > 1 {
		if err := p.batch.Decode(frame); err != nil {
			return nil, f.fail(pi, op, err)
		}
		if got := len(p.batch.Frames); got != p.want {
			return nil, f.fail(pi, op, fmt.Errorf("batched reply carries %d frames, want %d", got, p.want))
		}
		p.subs = p.batch.Frames
	}
	for _, sub := range p.subs {
		f.ledger.RecordSized(comm.Up, 1, int64(len(sub)))
	}
	return p.subs, nil
}

// Exchange flushes every peer's queued commands as one fanned-out exchange
// — every involved peer is working before the first reply is awaited — and
// gathers the replies, which Next then hands out. A peer with nothing
// queued gets no frame and has no replies.
func (f *Fan) Exchange(op string) error {
	for pi, p := range f.peers {
		p.subs = nil
		if len(p.queue.lens) == 0 {
			continue
		}
		if err := f.ship(pi, op); err != nil {
			return err
		}
	}
	for pi, p := range f.peers {
		if p.owed == 0 {
			continue
		}
		if _, err := f.gather(pi, op); err != nil {
			return err
		}
	}
	return nil
}

// Next consumes peer pi's next reply sub-frame of the last Exchange, in the
// order its commands were queued.
func (f *Fan) Next(pi int) []byte {
	p := f.peers[pi]
	sub := p.subs[0]
	p.subs = p.subs[1:]
	return sub
}

// Reply consumes peer pi's next reply sub-frame as a wire.Reply: violation
// flags, or the empty acknowledgement of a command that has nothing to
// report (a Round is answered by a bid log, read through Next). The result
// is valid until the peer's next Reply.
func (f *Fan) Reply(pi int, op string) (*wire.Reply, error) {
	p := f.peers[pi]
	if err := p.reply.Decode(f.Next(pi)); err != nil {
		return nil, f.fail(pi, op, err)
	}
	return &p.reply, nil
}

// Assign re-splits [a.Lo, a.Hi) over the peers (see Split) and runs the
// handshake. A range narrower than the peer count shuts the surplus peers
// down for good, so every survivor hosts at least one node.
func (f *Fan) Assign(a wire.Assign) error {
	width := a.Hi - a.Lo
	if width <= 0 {
		return fmt.Errorf("fanout: empty range [%d, %d) assigned", a.Lo, a.Hi)
	}
	if width < len(f.peers) {
		f.shutdown(f.peers[width:])
		f.peers = f.peers[:width]
	}
	for i, p := range f.peers {
		p.lo, p.hi = Split(a.Lo, a.Hi, len(f.peers), i)
	}
	return f.assign(a)
}

// assign runs the Assign/Ready handshake over the current ranges: every
// peer is sent a narrowed to its own range — servers (re)build their banks
// for it from scratch — and answers Ready.
func (f *Fan) assign(a wire.Assign) error {
	for pi, p := range f.peers {
		a.Lo, a.Hi = p.lo, p.hi
		f.Queue(pi, a.Append)
		if err := f.ship(pi, "assign"); err != nil {
			return err
		}
	}
	for pi := range f.peers {
		subs, err := f.gather(pi, "ready")
		if err != nil {
			return err
		}
		if err := wire.DecodeBare(subs[len(subs)-1], wire.TypeReady); err != nil {
			return f.fail(pi, "ready", err)
		}
	}
	return nil
}

// TreeStats polls the peers' diagnostic plane and returns the aggregated
// hierarchy statistics: one coordination-traffic summary per tree level
// below the fan, summed elementwise over the peers and deepest first, with
// the fan's own ledger as the last entry. The poll itself is deliberately
// uncharged — it rides outside the protocol and the ledger, visible only
// in the transport statistics — so polling does not perturb what it
// measures. Over leaf peers the result is the fan's level alone. Nothing
// may be queued: the fan is between exchanges.
func (f *Fan) TreeStats() (wire.TreeStats, error) {
	var out wire.TreeStats
	for pi, p := range f.peers {
		p.queue.Add(pollFrame)
		//lint:topk chargedsend StatsPoll is deliberately uncharged diagnostics: polling must not perturb the ledgers it reports (see the doc above)
		err := p.link.SendLent(p.queue.Frame(false))
		p.queue.Reset()
		if err != nil {
			return out, f.fail(pi, "stats poll", err)
		}
		if err := transport.Flush(p.link); err != nil {
			return out, f.fail(pi, "stats poll", err)
		}
		f.expect(p)
	}
	for pi := range f.peers {
		frame, err := f.await(pi, "stats reply")
		if err != nil {
			return out, err
		}
		if err := f.stats.Decode(frame); err != nil {
			return out, f.fail(pi, "stats reply", err)
		}
		out.Merge(f.stats)
	}
	out.Levels = append(out.Levels, wire.LevelIO{
		Down:      f.ledger.Get(comm.Down),
		Up:        f.ledger.Get(comm.Up),
		DownBytes: f.ledger.GetBytes(comm.Down),
		UpBytes:   f.ledger.GetBytes(comm.Up),
	})
	return out, nil
}

// Close sends every peer a Shutdown frame, closes the links and stops the
// reader goroutines, so servers exit their loops cleanly before the links
// go away. Queued commands are dropped — the servers are going away with
// the fan.
func (f *Fan) Close() { f.shutdown(f.peers) }

// shutdown is Close for the given peers.
func (f *Fan) shutdown(peers []*peer) {
	for _, p := range peers {
		// Best effort: a peer that already vanished is being shut down
		// anyway.
		p.queue.Reset()
		p.queue.Add(shutdownFrame)
		//lint:topk chargedsend Shutdown is a teardown control frame outside the model; nothing is charged once a peer is being dismantled
		_ = p.link.SendLent(p.queue.Frame(false))
		p.queue.Reset()
		_ = transport.Flush(p.link)
		_ = p.link.Close()
		if p.req != nil {
			close(p.req)
		}
	}
}

// pollFrame and shutdownFrame encode the fan's two uncharged control frames.
func pollFrame(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeStatsPoll) }

func shutdownFrame(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeShutdown) }
