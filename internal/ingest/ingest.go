// Package ingest decouples observation producers from protocol
// execution: the asynchronous ingestion column shared by every engine.
//
// A Driver owns a bounded coord.Pending coalescing buffer and one worker
// goroutine. Producers enqueue per-node observations; the worker takes
// the buffered batch as soon as one is pending and applies it as a
// single protocol step through the engine-specific Apply callback. While
// a step executes, further observations coalesce in the buffer —
// last-write-wins per node — so a slow protocol round (a violation
// burst, a FILTERRESET, a failover recovery) back-pressures ingestion
// into *fewer, fresher* steps instead of a growing backlog. The Drain
// barrier waits for the buffer to empty and the in-flight step to
// complete, recovering synchronous semantics on demand: an Enqueue
// followed immediately by Drain is equivalent, bit for bit, to a
// blocking observation call, which is what the equivalence-under-async
// suites in internal/sim pin for all four engines.
//
// The driver is engine-agnostic: Apply is a closure over
// core.Monitor.ObserveDelta — on either in-process host — or the
// networked engines' equivalents. For the networked engines the frames
// of a coalesced step ride the existing pipelined wire.Batch envelope,
// so coalescing composes with frame coalescing — one merged step costs
// one fan-out, not one per superseded observation.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/coord"
)

// Policy selects what Enqueue does when the buffer already holds Depth
// distinct pending nodes and a new node arrives. Observations of
// already-pending nodes always coalesce and can never overflow.
type Policy uint8

const (
	// Block waits for the worker to take the buffered batch, then
	// admits the observation. Lossless; producers inherit the hot
	// path's pace (real backpressure).
	Block Policy = iota
	// DropOldest evicts the oldest pending observation to admit the new
	// one. Lossy under sustained overload: the evicted node keeps its
	// previously applied value until it is observed again.
	DropOldest
	// Error rejects the whole Enqueue call with ErrQueueFull, admitting
	// none of its updates (atomic rejection).
	Error
)

// ErrQueueFull is returned (wrapped) by Enqueue under the Error policy
// when a call would push the buffer past its depth.
var ErrQueueFull = errors.New("ingest: queue full")

// ErrClosed is returned by Enqueue and Drain after Close.
var ErrClosed = errors.New("ingest: driver closed")

// Config parameterizes a Driver.
type Config struct {
	// N is the node count (ids in [0, N)).
	N int
	// Depth bounds the number of distinct nodes with a pending
	// observation (>= 1; capped at N).
	Depth int
	// Policy is the overflow policy.
	Policy Policy
	// Apply executes one protocol step over the taken batch (ids
	// ascending; the slices are worker-owned scratch, valid only for
	// the call). It runs on the worker goroutine. A non-nil error is
	// terminal: the driver stops applying and surfaces it from every
	// subsequent Enqueue and Drain.
	Apply func(ids []int, vals []int64) error
	// OnApply, when set, observes every taken batch just before Apply
	// runs, on the worker goroutine (the equivalence suites record the
	// applied trace through it). It must copy what it keeps and must
	// not call back into the driver.
	OnApply func(ids []int, vals []int64)
	// OnDrop, when set, observes every DropOldest eviction, on the
	// producer's goroutine with the driver locked; it must not call
	// back into the driver.
	OnDrop func(id int, val int64)
}

// Stats counts the driver's lifetime activity. Steps is the number of
// applied batches — under backlog it is smaller than the number of
// enqueued observation calls, and Coalesced counts exactly the updates
// that were superseded before a worker took them.
type Stats struct {
	Enqueued  int64 // updates admitted into the buffer
	Coalesced int64 // updates that overwrote a queued one
	Dropped   int64 // updates evicted by DropOldest
	Steps     int64 // batches taken and applied as protocol steps
	MaxQueue  int   // high-water mark of distinct pending nodes
}

// Driver is the asynchronous ingestion front of one engine. Enqueue may
// be called from any number of producer goroutines; Drain and Close
// from any goroutine. The zero value is unusable; construct with New.
type Driver struct {
	cfg Config

	mu       sync.Mutex
	c        *sync.Cond
	pend     *coord.Pending
	dirty    bool // a step is pending (possibly with an empty batch)
	inFlight bool // the worker is applying a batch
	err      error
	closed   bool
	stats    Stats

	done     chan struct{}
	takeIDs  []int
	takeVals []int64
}

// New validates cfg, starts the worker, and returns the driver. The
// caller must Close it to release the worker (pending observations are
// discarded; Drain first for a flush).
func New(cfg Config) (*Driver, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("ingest: need N > 0, got %d", cfg.N)
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("ingest: need Depth >= 1, got %d", cfg.Depth)
	}
	if cfg.Policy > Error {
		return nil, fmt.Errorf("ingest: unknown overflow policy %d", cfg.Policy)
	}
	if cfg.Apply == nil {
		return nil, errors.New("ingest: Apply must be set")
	}
	d := &Driver{
		cfg:      cfg,
		pend:     coord.NewPending(cfg.N, cfg.Depth),
		done:     make(chan struct{}),
		takeIDs:  make([]int, 0, min(cfg.Depth, cfg.N)),
		takeVals: make([]int64, 0, min(cfg.Depth, cfg.N)),
	}
	d.c = sync.NewCond(&d.mu)
	go d.run()
	return d, nil
}

// gate reports the state that refuses new work.
func (d *Driver) gate() error {
	if d.err != nil {
		return d.err
	}
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Enqueue stages one observation call — vals[j] is node ids[j]'s new
// value, or with nil ids and N values node j's: a dense call, every node —
// as (part of) a future protocol step and returns without waiting for
// execution. ids must be valid for the engine (the public boundary
// validates before enqueueing); they need not be sorted here, but
// duplicate ids within one call coalesce to the last value, exactly as
// across calls. An empty call still marks a step pending, so a drained
// "nothing changed" observation replays as the empty protocol step the
// synchronous path would have run.
//
// The call is atomic with respect to step boundaries unless the Block
// policy must wait mid-call (only possible when a single call carries
// more distinct new nodes than Depth): the updates of one call land in
// the same taken batch or coalesce into later ones, and under Error the
// whole call is admitted or rejected.
func (d *Driver) Enqueue(ids []int, vals []int64) error {
	dense := ids == nil && len(vals) == d.cfg.N
	if !dense && len(ids) != len(vals) {
		return fmt.Errorf("ingest: %d ids but %d values", len(ids), len(vals))
	}
	idOf := func(j int) int {
		if dense {
			return j
		}
		return ids[j]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return err
	}
	if d.cfg.Policy == Error {
		fresh := 0
		for j := range vals {
			if !d.pend.Has(idOf(j)) {
				fresh++
			}
		}
		if d.pend.Len()+fresh > d.pend.Cap() {
			return fmt.Errorf("%w: %d queued + %d new > depth %d", ErrQueueFull, d.pend.Len(), fresh, d.pend.Cap())
		}
	}
	for j, v := range vals {
		id := idOf(j)
		if !d.pend.Has(id) && d.pend.Full() {
			switch d.cfg.Policy {
			case DropOldest:
				old, oldV := d.pend.EvictOldest()
				d.stats.Dropped++
				if d.cfg.OnDrop != nil {
					d.cfg.OnDrop(old, oldV)
				}
			default: // Block: hand the partial batch to the worker and wait
				for !d.pend.Has(id) && d.pend.Full() {
					d.dirty = true
					d.c.Broadcast()
					d.c.Wait()
					if err := d.gate(); err != nil {
						return err
					}
				}
			}
		}
		if d.pend.Put(id, v) {
			d.stats.Coalesced++
		}
		d.stats.Enqueued++
		if d.pend.Len() > d.stats.MaxQueue {
			d.stats.MaxQueue = d.pend.Len()
		}
	}
	d.dirty = true
	d.c.Broadcast()
	return nil
}

// Drain is the flush barrier: it blocks until every queued observation
// has been applied and no step is in flight, the driver fails (the
// terminal Apply error is returned), the driver closes, or ctx is done.
// After a nil return the engine is quiescent and its reports, ledgers
// and stats reflect every observation enqueued before the call —
// synchronous semantics on demand. Producers enqueueing concurrently
// with Drain can extend the wait arbitrarily; bound it with ctx.
func (d *Driver) Drain(ctx context.Context) error {
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				d.mu.Lock()
				d.c.Broadcast()
				d.mu.Unlock()
			case <-stop:
			}
		}()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.err != nil {
			return d.err
		}
		if d.closed {
			return ErrClosed
		}
		if !d.dirty && !d.inFlight {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		d.c.Wait()
	}
}

// Err returns the terminal Apply error, nil while the driver is healthy.
func (d *Driver) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Stats returns a snapshot of the driver's counters.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close stops the worker and wakes every blocked producer and drainer
// with ErrClosed. Observations still queued are discarded — Drain first
// to flush them. Close waits for an in-flight step to finish, so after
// it returns no goroutine of the driver touches the engine again; it is
// idempotent and safe to call concurrently.
func (d *Driver) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.c.Broadcast()
	}
	d.mu.Unlock()
	<-d.done
}

// run is the worker: it waits for a pending step, takes the coalesced
// batch, and applies it as one protocol step. Taking clears the buffer
// before Apply runs, so producers refill (and re-coalesce) concurrently
// with the execution — that window is exactly where the backlog of a
// slow step collapses into one fresh batch.
func (d *Driver) run() {
	defer close(d.done)
	d.mu.Lock()
	for {
		for !d.dirty && !d.closed && d.err == nil {
			d.c.Wait()
		}
		if d.closed || d.err != nil {
			d.mu.Unlock()
			return
		}
		d.takeIDs, d.takeVals = d.pend.Take(d.takeIDs[:0], d.takeVals[:0])
		d.dirty = false
		d.inFlight = true
		d.stats.Steps++
		d.c.Broadcast() // buffer space freed: wake Block-ed producers
		d.mu.Unlock()

		if d.cfg.OnApply != nil {
			d.cfg.OnApply(d.takeIDs, d.takeVals)
		}
		err := d.cfg.Apply(d.takeIDs, d.takeVals)

		d.mu.Lock()
		d.inFlight = false
		if err != nil && d.err == nil {
			d.err = err
		}
		d.c.Broadcast()
	}
}
