package topk

import (
	"errors"

	"repro/internal/coord"
	"repro/internal/netrun"
	"repro/internal/transport"
)

// EventKind identifies one failover event of a networked or sharded
// monitor.
type EventKind uint8

const (
	// EventPeerDown: a peer link died or misbehaved; recovery is scheduled.
	EventPeerDown EventKind = iota
	// EventPeerReplaced: a redialed replacement adopted the dead peer's range.
	EventPeerReplaced
	// EventRangeMerged: a dead peer's range was merged into a survivor.
	EventRangeMerged
	// EventPeerJoined: a late joiner adopted a range via Join.
	EventPeerJoined
	// EventRecovered: a recovery pass completed; reports track the oracle
	// again from the next step.
	EventRecovered
	// EventTerminal: recovery was abandoned; the monitor is wedged on its
	// last-good report and observations return Health().Terminal.
	EventTerminal
)

// String returns the event kind's name.
func (k EventKind) String() string { return coord.EventKind(k).String() }

// Event is one failover notification, delivered synchronously from the
// monitor's own goroutine to Config.OnEvent. The callback must not call
// back into the monitor.
type Event struct {
	Kind   EventKind
	Lo, Hi int   // affected node range
	Err    error // cause, for EventPeerDown and EventTerminal
}

// PeerHealth describes one live peer of a networked or sharded monitor.
type PeerHealth struct {
	Lo, Hi   int   // hosted node range
	Failures int64 // failures attributed to this peer slot
}

// Health is a monitor's failover state. The zero value means fully
// healthy; in-process engines always report it (with no peer list).
// Recovery makes at most three attempts before Terminal is set.
type Health struct {
	// Terminal is the unrecoverable failure that wedged the monitor, nil
	// while it can still make progress.
	Terminal error
	// Degraded reports that a peer failed and recovery runs at the next
	// observation call.
	Degraded bool
	// Failures and Recoveries count peer failures and completed recovery
	// passes over the monitor's lifetime.
	Failures   int64
	Recoveries int64
	// Peers lists the live peer ranges (networked and sharded engines).
	Peers []PeerHealth
}

// convertHealth maps the engine-side health to the public mirror.
func convertHealth(h coord.Health) Health {
	out := Health{
		Terminal:   h.Terminal,
		Degraded:   h.Degraded,
		Failures:   h.Failures,
		Recoveries: h.Recoveries,
	}
	for _, p := range h.Peers {
		out.Peers = append(out.Peers, PeerHealth{Lo: p.Lo, Hi: p.Hi, Failures: p.Failures})
	}
	return out
}

// convertEvent maps the engine-side event to the public mirror.
func convertEvent(ev coord.Event) Event {
	return Event{Kind: EventKind(ev.Kind), Lo: ev.Lo, Hi: ev.Hi, Err: ev.Err}
}

// redialInternal adapts the public Redial factory to the engine-side
// link type (nil stays nil).
func (c Config) redialInternal() func() (transport.Link, error) {
	if c.Redial == nil {
		return nil
	}
	return func() (transport.Link, error) {
		l, err := c.Redial()
		if err != nil {
			return nil, err
		}
		return transport.Link(l), nil
	}
}

// onEventInternal adapts the public event callback to the engine-side
// event type (nil stays nil).
func (c Config) onEventInternal() func(coord.Event) {
	if c.OnEvent == nil {
		return nil
	}
	return func(ev coord.Event) { c.OnEvent(convertEvent(ev)) }
}

// Health reports the monitor's failover state: terminal error, pending
// recovery, failure/recovery counters and live peer ranges. The in-process
// engine has no links to lose and always reports the zero Health.
func (m *Monitor) Health() Health {
	m.lock()
	defer m.unlock()
	if le, ok := m.eng.(linked); ok {
		return convertHealth(le.Health())
	}
	return Health{}
}

// Join attaches a late-joining peer to a networked monitor mid-stream
// (the far end of link must be running ServeNodes): the widest hosted
// range is split, its upper half handed to the new link, and the monitor
// re-converges before the next step. Networked monitors only: a tree
// monitor's peers are its own loopback subtrees, and every other monitor
// refuses a joiner without touching its layout. On a synchronous monitor
// call it between observation calls only; in asynchronous mode it is safe
// concurrently with producers — it waits out the step in flight — and
// staged observations apply to the new layout. On error the link is
// closed.
func (m *Monitor) Join(link Link) error {
	m.lock()
	defer m.unlock()
	if ne, ok := m.eng.(*netrun.Engine); ok {
		return ne.Join(transport.Link(link))
	}
	link.Close()
	return errors.New("topk: Join requires a networked monitor")
}
