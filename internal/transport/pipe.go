package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Pipe returns the two ends of an in-process loopback link. Frames are
// copied on Send, so callers may reuse their buffers immediately. Closing
// either end tears down both directions.
//
// The pipe charges its LinkStats as if each frame had crossed a
// length-prefixed stream (uvarint prefix plus payload), so loopback runs
// report transport volumes comparable to the TCP implementation. Frame
// buffers are recycled between the two ends: the slice Recv returns is
// valid until the receiver's next Send or Recv (the Link contract), after
// which it is handed back to the sending side for reuse. A receiver that
// answers every frame it gets therefore frees each frame with its answer,
// each direction of a steady-state request/reply cycle cycles one buffer,
// and the cycle allocates nothing.
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

// direction is one side of the pipe: a frame channel plus a free list the
// receiver returns consumed buffers to. A buffer travels boxed, so the
// receiving end can hold its last frame in one atomic pointer.
type direction struct {
	ch   chan *[]byte
	free chan *[]byte
}

func newDirection(buffer int) *direction {
	return &direction{
		ch:   make(chan *[]byte, buffer),
		free: make(chan *[]byte, buffer+1),
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
	prev atomic.Pointer[[]byte]
}

// frameLen is the on-stream size of one frame: prefix plus payload.
func frameLen(payload int) int64 {
	return int64(wire.SizeUvarint(uint64(payload)) + payload)
}

// Send implements Link. Pipes transmit immediately; there is nothing for
// Flush to release. A payload above MaxFrame is refused as the TCP link
// refuses it. The payload is copied before the frame the last Recv
// returned is freed, so a reply may be encoded over the request it
// answers.
func (l *pipeLink) Send(payload []byte) error {
	if err := sendable(payload); err != nil {
		return err
	}
	var cp *[]byte
	select {
	case cp = <-l.out.free:
	default:
		cp = new([]byte)
	}
	*cp = append((*cp)[:0], payload...)
	l.release(l.prev.Swap(nil))
	select {
	case <-l.done:
		return ErrClosed
	default:
	}
	select {
	case l.out.ch <- cp:
		l.sent(frameLen(len(payload)))
		return nil
	case <-l.done:
		return ErrClosed
	}
}

// Flush implements Flusher as a no-op: Send already delivered.
func (l *pipeLink) Flush() error { return nil }

// Recv implements Link. Frames already in flight when the pipe closes are
// still delivered; ErrClosed follows once the direction is drained. The
// returned slice is valid until the next Send or Recv on this end.
func (l *pipeLink) Recv() ([]byte, error) {
	select {
	case p := <-l.in.ch:
		return l.deliver(p), nil
	default:
	}
	select {
	case p := <-l.in.ch:
		return l.deliver(p), nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// deliver frees the previously returned frame, if a Send has not, and
// hands the new one out. The frame is read out of its box before the box
// is published: from then on a Send on another goroutine may free it.
func (l *pipeLink) deliver(p *[]byte) []byte {
	frame := *p
	l.received(frameLen(len(frame)))
	l.release(l.prev.Swap(p))
	return frame
}

// release hands a frame this end is done with back to the sender's free
// list (nil: none). A race-detector build overwrites it first, so a
// consumer that reads a frame past its validity reads garbage.
func (l *pipeLink) release(p *[]byte) {
	if p == nil {
		return
	}
	if poisonFreed {
		for i := range *p {
			(*p)[i] = poison
		}
	}
	select {
	case l.in.free <- p:
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
