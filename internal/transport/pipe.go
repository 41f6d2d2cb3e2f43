package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Pipe returns the two ends of an in-process loopback link. A frame sent
// through SendLent travels in the buffer it was encoded into — the one Lend
// handed out, or the one its encoder grew — with no copy; Send copies its
// payload into such a buffer, so callers may reuse theirs immediately.
// Closing either end tears down both directions.
//
// The pipe charges its LinkStats as if each frame had crossed a
// length-prefixed stream (uvarint prefix plus payload), so loopback runs
// report transport volumes comparable to the TCP implementation. Frame
// buffers are recycled between the two ends: the slice Recv returns is
// valid until the receiver's next Send, SendLent or Recv (the Link
// contract), after which it is handed back to the sending side, whose next
// Lend or Send carries a frame in it. A receiver that answers every frame
// it gets therefore frees each frame with its answer, each direction of a
// steady-state request/reply cycle cycles one buffer, and the cycle
// allocates nothing. A recycled buffer carries the next frame unless the
// sending end's Retention lets it go, so a direction's buffer is sized by
// the frames it carries now: the one a handshake's first dense frame grew
// is let go once two steady-state frames have needed under half of it —
// if it is over Retention's 2 KiB floor, as it is from a thousand nodes a
// pipe — and the next frame is encoded (or, on Send, copied) into a buffer
// of its own size.
//
// A pipe never buffers writes, so its Flush is a no-op.
func Pipe() (Link, Link) {
	const buffer = 16 // a fan-out sends at most a frame or two per gather
	fwd := newDirection(buffer)
	rev := newDirection(buffer)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &pipeLink{out: fwd, in: rev, done: done, once: once}
	b := &pipeLink{out: rev, in: fwd, done: done, once: once}
	return a, b
}

// box is one recycled frame buffer: buf from its start, which Lend hands
// out, and the frame it carries, buf or a window of it.
type box struct {
	buf, frame []byte
}

// direction is one side of the pipe: a frame channel plus a free list the
// receiver returns consumed boxes to. A frame travels boxed, so the
// receiving end can hold its last frame in one atomic pointer.
type direction struct {
	ch   chan *box
	free chan *box
}

func newDirection(buffer int) *direction {
	return &direction{
		ch:   make(chan *box, buffer),
		free: make(chan *box, buffer+1),
	}
}

type pipeLink struct {
	stats
	out  *direction
	in   *direction
	done chan struct{}
	once *sync.Once // shared: either end closes both directions
	// prev is the frame the last Recv returned, freed by the next Send or
	// Recv. It is swapped atomically because the two may run on different
	// goroutines.
	prev atomic.Pointer[box]
	// lent is the box the last Lend handed out, until SendLent sends it;
	// sizes judges the recycled buffers. Only the sending side touches
	// either.
	lent  *box
	sizes Retention
}

// frameLen is the on-stream size of one frame: prefix plus payload.
func frameLen(payload int) int64 {
	return int64(wire.SizeUvarint(uint64(payload)) + payload)
}

// take returns a free box of this end's sending direction, or a new one.
func (l *pipeLink) take() *box {
	select {
	case b := <-l.out.free:
		return b
	default:
		return new(box)
	}
}

// Send implements Link. Pipes transmit immediately; there is nothing for
// Flush to release. A payload above MaxFrame is refused as the TCP link
// refuses it. The payload is copied before the frame the last Recv
// returned is freed, so a reply may be encoded over the request it
// answers. A recycled buffer Retention lets go is dropped for one of the
// payload's size.
func (l *pipeLink) Send(payload []byte) error {
	if err := sendable(payload); err != nil {
		return err
	}
	b := l.take()
	if !l.sizes.Keep(cap(b.buf), len(payload)) {
		b.buf = nil
	}
	b.buf = append(b.buf[:0], payload...)
	b.frame = b.buf
	return l.post(b)
}

// Lend implements Lender: the buffer of a recycled box, unless Retention
// lets it go.
func (l *pipeLink) Lend() []byte {
	if l.lent == nil {
		l.lent = l.take()
	}
	if !l.sizes.Keep(cap(l.lent.buf), 0) {
		l.lent.buf = nil
	}
	return l.lent.buf[:0]
}

// SendLent implements Lender: the box the last Lend handed out carries the
// frame to the far end, in the buffer it was written in.
func (l *pipeLink) SendLent(frame []byte) error {
	if err := sendable(frame); err != nil {
		return err
	}
	b := l.lent
	if b == nil {
		b = l.take()
	}
	l.lent = nil
	l.sizes.Keep(0, len(frame))
	if !within(frame, b.buf) {
		b.buf = frame[:0] // the buffer the frame's encoder grew
	}
	b.frame = frame
	return l.post(b)
}

// post frees the frame the last Recv returned and hands b to the far end.
func (l *pipeLink) post(b *box) error {
	l.release(l.prev.Swap(nil))
	select {
	case <-l.done:
		return ErrClosed
	default:
	}
	select {
	case l.out.ch <- b:
		l.sent(frameLen(len(b.frame)))
		return nil
	case <-l.done:
		return ErrClosed
	}
}

// Flush implements Flusher as a no-op: Send already delivered.
func (l *pipeLink) Flush() error { return nil }

// Recv implements Link. Frames already in flight when the pipe closes are
// still delivered; ErrClosed follows once the direction is drained. The
// returned slice is valid until the next Send, SendLent or Recv on this
// end.
func (l *pipeLink) Recv() ([]byte, error) {
	select {
	case b := <-l.in.ch:
		return l.deliver(b), nil
	default:
	}
	select {
	case b := <-l.in.ch:
		return l.deliver(b), nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// deliver frees the previously returned frame, if a Send has not, and
// hands the new one out. The frame is read out of its box before the box
// is published: from then on a Send on another goroutine may free it.
func (l *pipeLink) deliver(b *box) []byte {
	frame := b.frame
	l.received(frameLen(len(frame)))
	l.release(l.prev.Swap(b))
	return frame
}

// release hands a frame this end is done with back to the sender's free
// list (nil: none). A race-detector build overwrites it first, so a
// consumer that reads a frame past its validity reads garbage.
func (l *pipeLink) release(b *box) {
	if b == nil {
		return
	}
	if poisonFreed {
		for i := range b.frame {
			b.frame[i] = poison
		}
	}
	select {
	case l.in.free <- b:
	default: // free list full; let the buffer go
	}
}

// poison is what a race-detector build overwrites a freed frame with: no
// message type, and a varint that never ends.
const poison = 0xff

// Close implements Link. It closes both directions and is idempotent.
func (l *pipeLink) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Stats implements StatsProvider.
func (l *pipeLink) Stats() LinkStats { return l.snapshot() }
