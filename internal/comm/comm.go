// Package comm models the communication substrate of the continuous
// distributed monitoring model (Cormode et al.) that the paper builds on:
// n nodes that can each exchange unicast messages with a single coordinator,
// plus a coordinator-side broadcast channel that reaches every node at once.
// Every message — unicast in either direction or broadcast — has unit cost
// and instantaneous delivery.
//
// The package does not move bytes; both execution engines (the sequential
// simulator in internal/sim and the goroutine runtime in internal/runtime)
// deliver payloads themselves and use this package purely for accounting:
// typed message kinds, cheap counters, per-phase ledgers and an optional
// bounded event trace. Keeping accounting separate from delivery is what
// lets the two engines share the protocol logic and then be checked for
// message-count equivalence in tests.
package comm

import (
	"fmt"
	"sync/atomic"
)

// Kind classifies a message by direction, mirroring the three communication
// methods of the paper's model (§2).
type Kind int

const (
	// Up is a node-to-coordinator unicast message.
	Up Kind = iota
	// Down is a coordinator-to-node unicast message.
	Down
	// Bcast is a coordinator broadcast received by all nodes; the model
	// charges it one unit regardless of n.
	Bcast

	numKinds
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Up:
		return "up"
	case Down:
		return "down"
	case Bcast:
		return "bcast"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists all message kinds in a stable order.
func Kinds() []Kind { return []Kind{Up, Down, Bcast} }

// Recorder receives message events: Counter, Ledger and the phase views
// implement it; protocol code only depends on this interface.
type Recorder interface {
	// RecordSized accounts for n messages of the given kind totalling the
	// given number of encoded payload bytes. n and bytes must be >= 0.
	RecordSized(kind Kind, n, bytes int64)
}

// Counter accumulates message counts and encoded byte volumes by kind.
// The zero value is ready to use. All methods are safe for concurrent
// use, so the goroutine runtime can share one counter across node
// goroutines.
type Counter struct {
	counts [numKinds]atomic.Int64
	bytes  [numKinds]atomic.Int64
}

// RecordSized implements Recorder.
func (c *Counter) RecordSized(kind Kind, n, bytes int64) {
	if n < 0 {
		panic("comm: negative message count")
	}
	if bytes < 0 {
		panic("comm: negative byte count")
	}
	if kind < 0 || kind >= numKinds {
		panic("comm: unknown message kind")
	}
	c.counts[kind].Add(n)
	c.bytes[kind].Add(bytes)
}

// Get returns the count for one kind.
func (c *Counter) Get(kind Kind) int64 {
	if kind < 0 || kind >= numKinds {
		panic("comm: unknown message kind")
	}
	return c.counts[kind].Load()
}

// Total returns the number of messages of all kinds; each broadcast counts
// as one message, matching the paper's unit-cost model.
func (c *Counter) Total() int64 {
	var t int64
	for i := range c.counts {
		t += c.counts[i].Load()
	}
	return t
}

// GetBytes returns the encoded byte volume recorded for one kind.
func (c *Counter) GetBytes(kind Kind) int64 {
	if kind < 0 || kind >= numKinds {
		panic("comm: unknown message kind")
	}
	return c.bytes[kind].Load()
}

// Snapshot returns the current counts as a plain value.
func (c *Counter) Snapshot() Counts {
	var s Counts
	s.Up = c.Get(Up)
	s.Down = c.Get(Down)
	s.Bcast = c.Get(Bcast)
	return s
}

// BytesSnapshot returns the current byte volumes as a plain value.
func (c *Counter) BytesSnapshot() Bytes {
	var b Bytes
	b.Up = c.GetBytes(Up)
	b.Down = c.GetBytes(Down)
	b.Bcast = c.GetBytes(Bcast)
	return b
}

// Reset zeroes all counts and byte volumes.
func (c *Counter) Reset() {
	for i := range c.counts {
		c.counts[i].Store(0)
		c.bytes[i].Store(0)
	}
}

// Counts is an immutable snapshot of a Counter.
type Counts struct {
	Up    int64
	Down  int64
	Bcast int64
}

// Total returns the sum over all kinds.
func (c Counts) Total() int64 { return c.Up + c.Down + c.Bcast }

// Sub returns the component-wise difference c - o. Useful for measuring the
// cost of a phase as the delta between two snapshots.
func (c Counts) Sub(o Counts) Counts {
	return Counts{Up: c.Up - o.Up, Down: c.Down - o.Down, Bcast: c.Bcast - o.Bcast}
}

// Add returns the component-wise sum c + o.
func (c Counts) Add(o Counts) Counts {
	return Counts{Up: c.Up + o.Up, Down: c.Down + o.Down, Bcast: c.Bcast + o.Bcast}
}

// String renders the snapshot compactly.
func (c Counts) String() string {
	return fmt.Sprintf("up=%d down=%d bcast=%d total=%d", c.Up, c.Down, c.Bcast, c.Total())
}

// Bytes is the byte-volume companion of Counts: the encoded size of the
// charged messages, by kind. The sizes come from the canonical wire
// encodings (internal/wire), so every engine — sequential, sharded
// concurrent, networked — reports the identical Bytes for the same seed.
type Bytes struct {
	Up    int64
	Down  int64
	Bcast int64
}

// Total returns the byte sum over all kinds.
func (b Bytes) Total() int64 { return b.Up + b.Down + b.Bcast }

// Sub returns the component-wise difference b - o.
func (b Bytes) Sub(o Bytes) Bytes {
	return Bytes{Up: b.Up - o.Up, Down: b.Down - o.Down, Bcast: b.Bcast - o.Bcast}
}

// Add returns the component-wise sum b + o.
func (b Bytes) Add(o Bytes) Bytes {
	return Bytes{Up: b.Up + o.Up, Down: b.Down + o.Down, Bcast: b.Bcast + o.Bcast}
}

// String renders the snapshot compactly.
func (b Bytes) String() string {
	return fmt.Sprintf("upB=%d downB=%d bcastB=%d totalB=%d", b.Up, b.Down, b.Bcast, b.Total())
}

// Phase labels a stage of Algorithm 1 for cost-breakdown accounting
// (experiment E11). The labels follow the procedures in the paper's
// pseudocode.
type Phase int

const (
	// PhaseViolation covers the protocols started by filter-violating nodes
	// (Algorithm 1 lines 2-10).
	PhaseViolation Phase = iota
	// PhaseHandler covers the coordinator-initiated protocol completing the
	// missing side plus the midpoint broadcast (lines 15-34, excluding reset).
	PhaseHandler
	// PhaseReset covers FILTERRESET (lines 36-42), including initialization.
	PhaseReset

	numPhases
)

// String returns the phase name used in tables.
func (p Phase) String() string {
	switch p {
	case PhaseViolation:
		return "violation"
	case PhaseHandler:
		return "handler"
	case PhaseReset:
		return "reset"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Phases lists all phases in a stable order.
func Phases() []Phase { return []Phase{PhaseViolation, PhaseHandler, PhaseReset} }

// Ledger is a Counter with an additional per-phase breakdown. The zero
// value is ready to use.
type Ledger struct {
	total  Counter
	phases [numPhases]Counter
}

// RecordSized implements Recorder, attributing to no particular phase.
// Prefer InPhase for attributed recording; a bare RecordSized still updates
// the total.
func (l *Ledger) RecordSized(kind Kind, n, bytes int64) { l.total.RecordSized(kind, n, bytes) }

// InPhase returns a Recorder that attributes messages to the given phase
// while also updating the ledger total.
func (l *Ledger) InPhase(p Phase) Recorder {
	if p < 0 || p >= numPhases {
		panic("comm: unknown phase")
	}
	return phaseRecorder{ledger: l, phase: p}
}

// Total returns the ledger's overall counter snapshot.
func (l *Ledger) Total() Counts { return l.total.Snapshot() }

// TotalBytes returns the ledger's overall byte-volume snapshot.
func (l *Ledger) TotalBytes() Bytes { return l.total.BytesSnapshot() }

// PhaseCounts returns the snapshot attributed to phase p.
func (l *Ledger) PhaseCounts(p Phase) Counts {
	if p < 0 || p >= numPhases {
		panic("comm: unknown phase")
	}
	return l.phases[p].Snapshot()
}

// PhaseBytes returns the byte-volume snapshot attributed to phase p.
func (l *Ledger) PhaseBytes(p Phase) Bytes {
	if p < 0 || p >= numPhases {
		panic("comm: unknown phase")
	}
	return l.phases[p].BytesSnapshot()
}

// Reset zeroes the ledger.
func (l *Ledger) Reset() {
	l.total.Reset()
	for i := range l.phases {
		l.phases[i].Reset()
	}
}

type phaseRecorder struct {
	ledger *Ledger
	phase  Phase
}

func (r phaseRecorder) RecordSized(kind Kind, n, bytes int64) {
	r.ledger.total.RecordSized(kind, n, bytes)
	r.ledger.phases[r.phase].RecordSized(kind, n, bytes)
}

// Discard is a Recorder that drops all events. It is handy for protocol
// executions whose cost must not be charged (e.g. oracle computations).
var Discard Recorder = discard{}

type discard struct{}

func (discard) RecordSized(Kind, int64, int64) {}

// Tee returns a Recorder that forwards every event to all of rs.
func Tee(rs ...Recorder) Recorder { return tee(rs) }

type tee []Recorder

func (t tee) RecordSized(kind Kind, n, bytes int64) {
	for _, r := range t {
		r.RecordSized(kind, n, bytes)
	}
}
