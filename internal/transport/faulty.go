package transport

import (
	"sync"
	"time"

	"repro/internal/rng"
)

// FaultPlan scripts the failure behavior of a Faulty link. Operation
// indices are 1-based and count Send and Recv calls together in the order
// the wrapper sees them; 0 disables a fault. All injected failures are
// fail-stop: after a fault fires, the underlying link is closed and every
// later operation reports ErrClosed — a Faulty never hangs and never
// silently corrupts a frame, it only loses, duplicates, delays, or cuts.
type FaultPlan struct {
	// KillAt closes the connection at the given operation: the operation
	// itself fails with ErrClosed, as a peer process dying mid-protocol
	// would look to the other end.
	KillAt int64
	// DropAt loses one frame and then cuts the connection: a Send at this
	// operation reports success without transmitting, a Recv consumes and
	// discards the incoming frame. The cut models the fail-stop assumption
	// — on a reliable ordered stream a loss without a cut cannot happen,
	// and cutting is what keeps the wrapper hang-free.
	DropAt int64
	// DupAt delivers one frame twice and then cuts: a Send transmits the
	// payload twice, a Recv returns the same frame on this operation and
	// the next. The receiver sees a protocol-desynchronizing duplicate,
	// the canonical "retransmission after a lost ack" corruption.
	DupAt int64
	// Delay, when positive, sleeps a seeded-jittered duration in
	// [Delay/2, Delay*3/2) before every operation, surfacing reordering
	// between links and slow-network behavior.
	Delay time.Duration
	// Seed drives the jitter; plans with equal seeds replay identically.
	Seed uint64
}

// Faulty wraps a Link with scripted fault injection for tests and
// benchmarks. It preserves the Link contract (Send and Recv from
// different goroutines, neither concurrent with itself) and forwards
// Flush and Stats to the wrapped link.
type Faulty struct {
	link Link
	plan FaultPlan

	mu     sync.Mutex
	r      *rng.RNG
	ops    int64
	killed bool
	pend   []byte // frame pending re-delivery (DupAt on Recv)
}

// NewFaulty wraps l with the given fault plan.
func NewFaulty(l Link, plan FaultPlan) *Faulty {
	return &Faulty{link: l, plan: plan, r: rng.New(plan.Seed, 0xfa17)}
}

// faultAction is what begin decided for one operation.
type faultAction uint8

const (
	actNone faultAction = iota
	actClosed
	actKill
	actDrop
	actDup
)

// begin accounts one operation and decides its fate. It never blocks:
// sleeping and link calls happen outside the lock.
func (f *Faulty) begin() (faultAction, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return actClosed, 0
	}
	f.ops++
	var delay time.Duration
	if f.plan.Delay > 0 {
		delay = f.plan.Delay/2 + time.Duration(f.r.Uint64n(uint64(f.plan.Delay)))
	}
	switch {
	case f.plan.KillAt != 0 && f.ops == f.plan.KillAt:
		return actKill, delay
	case f.plan.DropAt != 0 && f.ops == f.plan.DropAt:
		return actDrop, delay
	case f.plan.DupAt != 0 && f.ops == f.plan.DupAt:
		return actDup, delay
	}
	return actNone, delay
}

// kill cuts the connection (idempotent).
func (f *Faulty) kill() {
	f.mu.Lock()
	already := f.killed
	f.killed = true
	f.mu.Unlock()
	if !already {
		f.link.Close()
	}
}

// Killed reports whether a fault has cut the connection.
func (f *Faulty) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// Send implements Link.
func (f *Faulty) Send(payload []byte) error {
	act, delay := f.begin()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actClosed:
		return ErrClosed
	case actKill:
		f.kill()
		return ErrClosed
	case actDrop:
		// The frame is lost but the sender does not know yet; the cut
		// surfaces on its next operation.
		f.kill()
		return nil
	case actDup:
		// The payload may alias the last frame received, which the first
		// Send frees: the second sends a copy.
		dup := append([]byte(nil), payload...)
		if err := f.link.Send(payload); err != nil {
			return err
		}
		if err := f.link.Send(dup); err != nil {
			return err
		}
		_ = Flush(f.link) // push both copies out before the cut below
		f.kill()
		return nil
	default:
		return f.link.Send(payload)
	}
}

// Recv implements Link.
func (f *Faulty) Recv() ([]byte, error) {
	f.mu.Lock()
	if pend := f.pend; pend != nil {
		f.pend = nil
		f.mu.Unlock()
		f.kill() // the duplicate delivered; now cut
		return pend, nil
	}
	f.mu.Unlock()
	act, delay := f.begin()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actClosed:
		return nil, ErrClosed
	case actKill:
		f.kill()
		return nil, ErrClosed
	case actDrop:
		frame, err := f.link.Recv()
		f.kill()
		if err == nil {
			_ = frame // consumed and discarded
		}
		return nil, ErrClosed
	case actDup:
		frame, err := f.link.Recv()
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.pend = append([]byte(nil), frame...)
		f.mu.Unlock()
		return frame, nil
	default:
		return f.link.Recv()
	}
}

// Flush implements Flusher.
func (f *Faulty) Flush() error {
	f.mu.Lock()
	killed := f.killed
	f.mu.Unlock()
	if killed {
		return ErrClosed
	}
	return Flush(f.link)
}

// Close implements Link. Idempotent.
func (f *Faulty) Close() error {
	f.kill()
	return nil
}

// Stats implements StatsProvider with the wrapped link's counters, so
// fault-injected equivalence tests read the same statistics surface.
func (f *Faulty) Stats() LinkStats { return StatsOf(f.link) }
