// Package transport moves the wire-encoded protocol frames between the
// coordinator and its peers. It provides the Link abstraction the
// networked engine (internal/netrun) is written against, with two
// implementations:
//
//   - Pipe: an in-process loopback that delivers frames over channels,
//     used by the loopback engine and the equivalence tests. It simulates
//     the same length-prefix framing cost as TCP so byte statistics are
//     comparable, hands a lent frame's buffer itself to the far end, and
//     frees a received frame when its receiver answers, so each direction
//     cycles one buffer and a steady-state request/reply cycle allocates
//     nothing (see Retention for the buffers it lets go instead).
//   - TCP: a length-prefixed stream protocol — one coordinator listener,
//     n dialing peers, one goroutine-free synchronous read loop per
//     connection, graceful shutdown via context cancellation. Frames are
//     encoded straight into its write buffer and read through one read
//     buffer, both sized by the frames they carry.
//
// Both lend the buffer a frame is encoded into (Lender), so a frame is
// written once, where its link carries it from; Lending adapts any other
// Link with one copy.
//
// A frame is a uvarint payload length followed by the payload (one
// internal/wire message). Frames are capped at MaxFrame bytes so a
// garbage or hostile stream fails fast instead of exhausting memory.
//
// # Flush semantics
//
// Send may buffer: a link is free to hold framed bytes back until they are
// explicitly released with Flush (see Flusher) — that is what lets the
// pipelined engines coalesce a whole fan-out into one write per link. Two
// rules keep buffering safe for every caller:
//
//   - Recv on a link with unflushed writes flushes them before blocking
//     (the flush-before-read guard), so a strict request/reply loop that
//     never calls Flush cannot deadlock itself waiting for a reply to a
//     request that never left the buffer.
//   - Flush(l) on a link that does not buffer (Pipe, or an external
//     implementation without the Flusher method) is a no-op.
//
// Links only move bytes; they neither interpret frames nor count model
// messages. Model accounting lives in internal/comm, fed by the engines;
// a link's own LinkStats measure what actually crossed this transport —
// frames and framed bytes, control plane included — which is the
// deployment-facing number DESIGN.md contrasts with the model ledger.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed link.
var ErrClosed = errors.New("transport: link closed")

// MaxFrame is the largest accepted frame payload, in bytes. The protocol's
// largest message is a dense Observe for one peer's node range (a handful
// of bytes per node), so 1<<26 leaves orders of magnitude of headroom
// while still rejecting nonsense length prefixes immediately.
const MaxFrame = 1 << 26

// sendable refuses a payload above MaxFrame, for every link alike: a
// loopback run must not carry a frame the deployed transport would refuse.
func sendable(payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	return nil
}

// Retention is the one retention rule for a long-lived frame buffer — the
// buffer a link lends a frame's encoder (a pipe's boxes, a TCP link's write
// buffer, Lending's own), a TCP link's read buffer, a monitor's checkpoint
// encode buffer. A frame is written once, into the buffer its link carries
// it in, so each of those is the only buffer its frames pass through. The
// first frame after a handshake carries values where the frames after it
// carry changes (internal/wire), several times as many bytes, as a
// checkpoint base does over the deltas after it, and a buffer it grew would
// otherwise keep that size for good. Keep is told of every frame the buffer
// carries and lets go of a buffer over 2 KiB that is more than twice the
// larger of the last two frames of at least 1 KiB it was told of. Three
// limits keep the rule from letting go of a buffer the next frame will need:
// the floor, below which a buffer is kept whatever mix of frames it
// carries — twice the least frame that counts, so that a buffer no counted
// frame grew (a frame under 1 KiB, and the room append rounds it up to) is
// kept, not let go at every Lend; frames under 1 KiB — acks, rounds,
// replies — which do not count; and the memory of two frames, which lets
// one larger protocol frame — a large-k reset's batch of Winners — pass
// between two observation frames without the buffer they need being let
// go. A buffer lent before its frame is known is judged when it is lent,
// Keep(capacity, 0), and told of the frame once it is sent, Keep(0, n).
// The zero value is ready to use.
type Retention struct {
	last, prev int // the last two counted frames' lengths
}

const (
	// retainSmall is the least frame Retention counts.
	retainSmall = 1 << 10
	// retainFloor is the capacity Retention keeps whatever it was told.
	retainFloor = 2 * retainSmall
)

// Keep records that a buffer of the given capacity carried (or is about to
// carry) a frame of n bytes, and reports whether the buffer is worth
// keeping. n = 0 judges the buffer alone; capacity 0 only records the frame.
func (r *Retention) Keep(capacity, n int) bool {
	if n >= retainSmall {
		r.last, r.prev = n, r.last
	}
	return capacity <= r.room()
}

// room is the largest capacity Keep keeps, given the frames it was told of.
func (r *Retention) room() int {
	return max(retainFloor, 2*max(r.last, r.prev))
}

// Link is one reliable, ordered, message-framed duplex connection between
// the coordinator and a peer. Send and Recv are safe to call from
// different goroutines (the engine's natural usage), but neither is safe
// for concurrent use with itself.
type Link interface {
	// Send frames one payload. The payload is not retained. Send may
	// buffer the framed bytes; Flush (or the next Recv) releases them.
	Send(payload []byte) error
	// Recv blocks for the next frame and returns its payload, after
	// flushing any bytes Send buffered on this link. The returned slice
	// is valid until this end's next Recv, Send or SendLent (Lender),
	// whichever comes first: a receiver is done with a frame once it has
	// answered it, and an implementation may reuse the buffer from then
	// on. The answer itself may alias the frame: Send takes its payload
	// before it frees it.
	Recv() ([]byte, error)
	// Close tears the link down; pending and future operations fail.
	// Close is idempotent.
	Close() error
}

// Flusher is implemented by links whose Send buffers: Flush writes out
// everything buffered so far. Safe to call concurrently with Recv (but
// not with Send or another Flush, mirroring Send's contract).
type Flusher interface {
	Flush() error
}

// Flush releases l's buffered writes; it is a no-op for links that
// transmit on Send.
func Flush(l Link) error {
	if f, ok := l.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Lender is a link that lends the buffer a frame is encoded into, so that
// the frame is written once, where the link carries it from: a pipe hands
// the buffer itself to the far end, a TCP link lends the room after the
// frames it has buffered. Lend returns an empty buffer; the caller appends
// one frame to it — growing it if it must, or writing the frame behind
// bytes it skips — and passes the frame, a window of what it appended, to
// SendLent, after which the link owns the buffer. A lent buffer is valid
// until the link's next Lend, Send or SendLent; Lend and SendLent follow
// Send's concurrency contract. SendLent refuses a frame above MaxFrame as
// Send does.
type Lender interface {
	Link
	Lend() []byte
	SendLent(frame []byte) error
}

// Lending returns l as a Lender: l itself when it lends its buffers (Pipe,
// TCP, Faulty), otherwise an adapter that lends a buffer of its own, under
// Retention, and copies each frame through l's Send — the one copy left
// for a link that cannot lend (an external topk.Link, an interposed
// wrapper). The adapter forwards Flush and Stats.
func Lending(l Link) Lender {
	if le, ok := l.(Lender); ok {
		return le
	}
	return &lending{Link: l}
}

// lending is Lending's adapter.
type lending struct {
	Link
	buf   []byte
	sizes Retention
}

func (a *lending) Lend() []byte {
	if !a.sizes.Keep(cap(a.buf), 0) {
		a.buf = nil
	}
	return a.buf[:0]
}

// SendLent copies the frame out through Send and keeps the buffer it was
// written in for the next Lend: the lent one, or the one its encoder grew.
func (a *lending) SendLent(frame []byte) error {
	if err := sendable(frame); err != nil {
		return err
	}
	a.sizes.Keep(0, len(frame))
	if !within(frame, a.buf) {
		a.buf = frame[:0]
	}
	return a.Link.Send(frame)
}

func (a *lending) Flush() error { return Flush(a.Link) }

func (a *lending) Stats() LinkStats { return StatsOf(a.Link) }

// within reports whether frame is a window of buf's storage that reaches
// its end — buf resliced, not trimmed and not reallocated — so that
// cap(buf)-cap(frame) is the frame's offset in buf.
func within(frame, buf []byte) bool {
	c, f := cap(buf), cap(frame)
	return f > 0 && f <= c && &buf[:c][c-1] == &frame[:f][f-1]
}

// LinkStats counts the traffic that crossed one link, as framed on the
// transport (length prefixes included).
type LinkStats struct {
	SentFrames int64
	SentBytes  int64
	RecvFrames int64
	RecvBytes  int64
}

// Add returns the component-wise sum s + o.
func (s LinkStats) Add(o LinkStats) LinkStats {
	return LinkStats{
		SentFrames: s.SentFrames + o.SentFrames,
		SentBytes:  s.SentBytes + o.SentBytes,
		RecvFrames: s.RecvFrames + o.RecvFrames,
		RecvBytes:  s.RecvBytes + o.RecvBytes,
	}
}

// StatsProvider is implemented by links that track transport statistics.
type StatsProvider interface {
	Stats() LinkStats
}

// StatsOf returns l's transport statistics, or the zero value when l does
// not track any.
func StatsOf(l Link) LinkStats {
	if sp, ok := l.(StatsProvider); ok {
		return sp.Stats()
	}
	return LinkStats{}
}

// stats is the shared atomic implementation backing both link types.
type stats struct {
	sentFrames atomic.Int64
	sentBytes  atomic.Int64
	recvFrames atomic.Int64
	recvBytes  atomic.Int64
}

func (s *stats) sent(bytes int64) {
	s.sentFrames.Add(1)
	s.sentBytes.Add(bytes)
}

func (s *stats) received(bytes int64) {
	s.recvFrames.Add(1)
	s.recvBytes.Add(bytes)
}

func (s *stats) snapshot() LinkStats {
	return LinkStats{
		SentFrames: s.sentFrames.Load(),
		SentBytes:  s.sentBytes.Load(),
		RecvFrames: s.recvFrames.Load(),
		RecvBytes:  s.recvBytes.Load(),
	}
}
