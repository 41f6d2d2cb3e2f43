package coord

import "fmt"

// Failover observability types, reported by the link engine
// (internal/fanout) and mirrored by the public topk API. They are pure
// data: the coord package defines them so the engine and its adapters
// agree on vocabulary without importing each other.

// EventKind classifies a failover event.
type EventKind uint8

const (
	// EventPeerDown: a peer's link failed; its range is pending
	// reassignment. Err carries the transport error.
	EventPeerDown EventKind = iota
	// EventPeerReplaced: a redial produced a fresh link that adopted the
	// failed peer's exact range.
	EventPeerReplaced
	// EventRangeMerged: no replacement was available; the failed peer's
	// range [Lo, Hi) was merged into a surviving neighbor.
	EventRangeMerged
	// EventPeerJoined: a late joiner adopted the range [Lo, Hi) mid-stream.
	EventPeerJoined
	// EventRecovered: reassignment, value replay and the forced
	// FILTERRESET completed; reports re-converge from the next step.
	EventRecovered
	// EventTerminal: recovery was abandoned (retry budget exhausted or no
	// survivors); the engine is permanently degraded and Err carries the
	// terminal error.
	EventTerminal
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventPeerDown:
		return "peer-down"
	case EventPeerReplaced:
		return "peer-replaced"
	case EventRangeMerged:
		return "range-merged"
	case EventPeerJoined:
		return "peer-joined"
	case EventRecovered:
		return "recovered"
	case EventTerminal:
		return "terminal"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one failover occurrence: which node range was affected and,
// for failures, the underlying error. Events are delivered synchronously
// from the engine's own goroutine; callbacks must not call back into the
// engine.
type Event struct {
	Kind   EventKind
	Lo, Hi int // affected node range [Lo, Hi)
	Err    error
}

// PeerHealth describes one live peer connection.
type PeerHealth struct {
	Lo, Hi   int   // owned node range [Lo, Hi)
	Failures int64 // link failures attributed to this slot so far
}

// Health is a point-in-time engine health report.
type Health struct {
	// Terminal is non-nil once the engine has permanently given up;
	// reports are frozen at the last good step.
	Terminal error
	// Degraded reports that a failure happened and recovery has not yet
	// completed (it runs at the next observation call).
	Degraded bool
	// Failures counts peer link failures seen; Recoveries counts completed
	// reassignment+reset cycles.
	Failures   int64
	Recoveries int64
	// Peers lists the live peer slots in ascending range order.
	Peers []PeerHealth
}
