// Package transport moves the wire-encoded protocol frames between the
// coordinator and its peers. It provides the Link abstraction the
// networked engine (internal/netrun) is written against, with two
// implementations:
//
//   - Pipe: an in-process loopback that delivers frames over channels,
//     used by the loopback engine and the equivalence tests. It simulates
//     the same length-prefix framing cost as TCP so byte statistics are
//     comparable, and frees a received frame when its receiver answers,
//     so each direction cycles one buffer and a steady-state
//     request/reply cycle allocates nothing.
//   - TCP: a length-prefixed stream protocol — one coordinator listener,
//     n dialing peers, one goroutine-free synchronous read loop per
//     connection, graceful shutdown via context cancellation.
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
	// is valid until this end's next Recv or Send, whichever comes first:
	// a receiver is done with a frame once it has answered it, and an
	// implementation may reuse the buffer from then on. The answer itself
	// may alias the frame: Send takes its payload before it frees it.
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
