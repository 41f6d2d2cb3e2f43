package topk

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ingest"
)

// Ingest configures asynchronous ingestion (Config.Ingest). The zero
// value keeps the monitor synchronous: every observation call blocks
// until its protocol round completes, exactly as before.
//
// With QueueDepth > 0 the monitor decouples ingestion from protocol
// execution on every engine: Observe and ObserveDelta stage their
// updates in a bounded per-node coalescing buffer and return
// immediately (with a nil report), while a single worker goroutine
// takes the buffered batch and runs it as one protocol step. While a
// step executes, a newly staged observation of node i overwrites any
// queued one — never appends — which is semantically free because the
// protocol only ever needs each node's current value; under backlog a
// burst of observation calls therefore collapses into fewer, fresher
// steps instead of a queue of stale ones. Drain flushes the buffer and
// waits out the in-flight step, recovering synchronous semantics on
// demand: observe-then-Drain is bit-identical (reports, message counts,
// charged bytes, per-phase ledgers) to the old blocking observation,
// on all four engines.
//
// In asynchronous mode Observe, ObserveDelta and Drain may be called
// from multiple goroutines concurrently, and every read accessor is
// safe concurrently with the background worker; Close must still be
// the last call, after producers have stopped. Reports read between
// barriers are simply the latest applied step's — call Drain first for
// read-your-writes.
type Ingest struct {
	// QueueDepth bounds how many distinct nodes may have a staged,
	// not-yet-applied observation (further observations of an already
	// staged node coalesce and never consume space). 0 disables
	// asynchronous ingestion; otherwise any positive depth is valid and
	// is capped at Nodes. Dense Observe stages all Nodes updates per
	// call, so dense feeds want QueueDepth == Nodes; a smaller depth
	// still works but may split one dense call across protocol steps
	// under the Block policy.
	QueueDepth int
	// Overflow selects what happens when an observation of a new node
	// arrives while QueueDepth nodes are already staged.
	Overflow OverflowPolicy
}

// OverflowPolicy selects the backpressure behavior of a full ingest
// queue; see Ingest.Overflow.
type OverflowPolicy uint8

const (
	// OverflowBlock (the default) blocks the observation call until the
	// worker takes the staged batch. Lossless: every update is applied.
	OverflowBlock OverflowPolicy = iota
	// OverflowDropOldest evicts the oldest staged observation to admit
	// the new one. Lossy under sustained overload: the evicted node
	// keeps its previously applied value until it is observed again.
	OverflowDropOldest
	// OverflowError rejects the observation call with ErrQueueFull,
	// admitting none of its updates; the monitor stays usable.
	OverflowError
)

// ErrQueueFull is the sentinel wrapped by asynchronous Observe and
// ObserveDelta when the OverflowError policy rejects a call; test with
// errors.Is.
var ErrQueueFull = ingest.ErrQueueFull

// ConfigError is the typed error New and NewOrdered return for an
// invalid Config, per the constructor contract: misconfiguration is
// reported as an error — never a panic — and any Transport the
// constructor took ownership of is closed first. Field names the
// offending Config field (dotted for nested fields, "Ingest.Overflow")
// and Reason describes the rejection; retrieve it with errors.As to
// distinguish construction-time misconfiguration from runtime failures.
type ConfigError struct {
	Field  string
	Reason string
}

// Error formats the rejection as "topk: invalid Config.<Field>: <Reason>".
func (e *ConfigError) Error() string {
	return "topk: invalid Config." + e.Field + ": " + e.Reason
}

// badConfig rejects a configuration with a typed ConfigError, releasing
// the Transport first (see failNew).
func badConfig(cfg Config, field, format string, args ...any) error {
	return failNew(cfg, &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)})
}

// validateIngest checks the Ingest sub-configuration.
func validateIngest(cfg Config) error {
	if cfg.Ingest.QueueDepth < 0 {
		return badConfig(cfg, "Ingest.QueueDepth", "must be >= 0, got %d", cfg.Ingest.QueueDepth)
	}
	if cfg.Ingest.Overflow > OverflowError {
		return badConfig(cfg, "Ingest.Overflow", "unknown overflow policy %d", cfg.Ingest.Overflow)
	}
	if cfg.Ingest.QueueDepth == 0 && cfg.Ingest.Overflow != OverflowBlock {
		return badConfig(cfg, "Ingest.Overflow", "an overflow policy requires Ingest.QueueDepth > 0")
	}
	return nil
}

// startIngest attaches the asynchronous ingestion driver to a freshly
// constructed monitor (QueueDepth > 0 was validated).
func (m *Monitor) startIngest() error {
	drv, err := ingest.New(ingest.Config{
		N:      m.cfg.Nodes,
		Depth:  m.cfg.Ingest.QueueDepth,
		Policy: ingest.Policy(m.cfg.Ingest.Overflow),
		Apply:  m.applyStep,
	})
	if err != nil {
		return err
	}
	m.drv = drv
	return nil
}

// applyStep runs one coalesced batch as a protocol step on the
// underlying engine. It executes on the ingest worker goroutine; the
// engine mutex serializes it against the read accessors.
func (m *Monitor) applyStep(ids []int, vals []int64) error {
	m.lock()
	defer m.unlock()
	m.observed(ids)
	_, err := m.step(m.eng.ObserveDelta(ids, vals))
	return err
}

// enqueue stages one validated observation call on the driver,
// translating the driver's sentinels into the public vocabulary.
func (m *Monitor) enqueue(ids []int, vals []int64) error {
	err := m.drv.Enqueue(ids, vals)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ingest.ErrClosed):
		return errClosed
	default:
		return err
	}
}

// Drain is the flush barrier of asynchronous ingestion: it blocks until
// every staged observation has been applied and no protocol step is in
// flight, then returns nil — at which point Top, Counts, Bytes, Phases
// and Stats reflect every observation staged before the call, exactly
// as if each had been a blocking Observe. It returns the engine's
// terminal error if background execution failed (the same error later
// observation calls return), ctx's error if the context ends first
// (the flush keeps running in the background), or an error on a closed
// monitor. On a synchronous monitor (Ingest.QueueDepth == 0) there is
// never anything in flight and Drain returns nil immediately.
//
// Producers observing concurrently with Drain can extend the wait
// arbitrarily; bound it with ctx.
func (m *Monitor) Drain(ctx context.Context) error {
	if m.drv != nil {
		err := m.drv.Drain(ctx)
		if errors.Is(err, ingest.ErrClosed) {
			return errClosed
		}
		return err
	}
	if m.eng == closedEngine {
		return errClosed
	}
	return nil
}

// IngestStats counts the asynchronous ingestion activity of a monitor.
// A synchronous monitor reports the zero value.
type IngestStats struct {
	// Enqueued counts the per-node updates admitted into the queue.
	Enqueued int64
	// Coalesced counts updates that overwrote a staged one — work the
	// protocol never had to do. Enqueued - Coalesced - Dropped updates
	// reached an executed step.
	Coalesced int64
	// Dropped counts updates evicted under OverflowDropOldest.
	Dropped int64
	// Batches counts the coalesced batches executed as protocol steps
	// (equals Stats().Steps of the engine driven by this queue).
	Batches int64
	// MaxQueue is the high-water mark of distinct staged nodes.
	MaxQueue int
}

// IngestStats returns a snapshot of the asynchronous ingestion counters.
func (m *Monitor) IngestStats() IngestStats {
	if m.drv == nil {
		return IngestStats{}
	}
	s := m.drv.Stats()
	return IngestStats{
		Enqueued:  s.Enqueued,
		Coalesced: s.Coalesced,
		Dropped:   s.Dropped,
		Batches:   s.Steps,
		MaxQueue:  s.MaxQueue,
	}
}
