// Package ingest decouples observation producers from protocol
// execution: the asynchronous ingestion column shared by every engine.
//
// A Driver owns a bounded coord.Pending coalescing buffer and one worker
// goroutine. Producers enqueue observation calls — strictly increasing
// ids, or nil ids for a dense call of every node; the worker takes the
// buffered batch as soon as one is pending and applies it as a single
// protocol step through the engine-specific Apply callback. While a step
// executes, further observations coalesce in the buffer — last-write-wins
// per node — so a slow protocol round (a violation burst, a FILTERRESET,
// a failover recovery) back-pressures ingestion into *fewer, fresher*
// steps instead of a growing backlog. Every call lands in exactly one
// applied batch: a call that does not fit the free slots waits for the
// worker to take the staged batch, and a call with more nodes than the
// buffer holds is handed to the worker whole, as its own step. The Drain barrier waits for the buffer to empty and the
// in-flight step to complete, recovering synchronous semantics on
// demand: an Enqueue followed immediately by Drain is equivalent, bit
// for bit, to a blocking observation call at every depth, which is what
// the equivalence-under-async suites in internal/sim pin for all four
// engines.
//
// The driver is engine-agnostic: Apply is a closure over
// core.Monitor.ObserveDelta — on either in-process host — or the
// networked engines' equivalents. A caller that records the applied trace
// (the equivalence suites) does so inside Apply. For the networked
// engines the frames of a coalesced step ride the existing pipelined
// wire.Batch envelope, so coalescing composes with frame coalescing — one
// merged step costs one fan-out, not one per superseded observation.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/coord"
)

// ErrClosed is returned by Enqueue and Drain after Close.
var ErrClosed = errors.New("ingest: driver closed")

// Config parameterizes a Driver.
type Config struct {
	// N is the node count (ids in [0, N)).
	N int
	// Depth bounds the number of distinct nodes with a pending
	// observation (>= 1; capped at N).
	Depth int
	// Apply executes one protocol step over the taken batch: ids
	// ascending, or nil ids with N values for a dense call handed over
	// whole (vals[i] is node i's). The slices are valid only for the
	// call — worker-owned scratch, or a producer's own buffers — and it
	// runs on the worker goroutine. A non-nil error is terminal: the
	// driver stops applying and surfaces it from every subsequent
	// Enqueue and Drain.
	Apply func(ids []int, vals []int64) error
}

// Stats counts the driver's lifetime activity. Steps is the number of
// applied batches — under backlog it is smaller than the number of
// enqueued observation calls, and Coalesced counts exactly the updates
// that were superseded before a worker took them: Enqueued - Coalesced
// updates reach an applied batch.
type Stats struct {
	Enqueued  int64 // updates admitted into the buffer or applied by a hand-off
	Coalesced int64 // updates that overwrote a queued one
	Steps     int64 // batches and hand-offs applied as protocol steps
	MaxQueue  int   // high-water mark of distinct pending nodes (a hand-off holds none)
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

	// handIDs/handVals hold a call larger than the buffer until the
	// worker takes it (handVals != nil while one waits); handTaken and
	// handDone count the hand-offs the worker has taken and applied, so
	// a producer can tell its own hand-off's fate.
	handIDs   []int
	handVals  []int64
	handTaken int64
	handDone  int64

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
// as a future protocol step and returns without waiting for execution.
// ids must be strictly increasing and valid for the engine (the public
// boundary validates before enqueueing). An empty call still marks a
// step pending, so a drained "nothing changed" observation replays as
// the empty protocol step the synchronous path would have run.
//
// The call is atomic with respect to step boundaries: its updates land
// in one taken batch (or coalesce into a later one). A call that does
// not fit the free slots first waits for the worker to take the staged
// batch, and a call with more nodes than Depth waits for that too, is
// then applied by the worker as one step of its own, and returns once
// Apply has returned — so its slices are never retained.
func (d *Driver) Enqueue(ids []int, vals []int64) error {
	dense := ids == nil && len(vals) == d.cfg.N
	if !dense && len(ids) != len(vals) {
		return fmt.Errorf("ingest: %d ids but %d values", len(ids), len(vals))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return err
	}
	if len(vals) > d.pend.Cap() {
		return d.handOff(ids, vals)
	}
	for d.pend.Len()+d.fresh(ids, vals) > d.pend.Cap() {
		d.c.Wait() // the staged batch is dirty: the worker takes it
		if err := d.gate(); err != nil {
			return err
		}
	}
	for j, v := range vals {
		id := j
		if !dense {
			id = ids[j]
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

// fresh counts the call's nodes without a pending observation: the free
// slots staging it whole needs. d.mu must be held.
func (d *Driver) fresh(ids []int, vals []int64) int {
	if len(vals) <= d.pend.Cap()-d.pend.Len() {
		return len(vals) // fits even if every node is new; skip the scan
	}
	if ids == nil {
		return len(vals) - d.pend.Len() // dense: every pending node is in the call
	}
	n := 0
	for _, id := range ids {
		if !d.pend.Has(id) {
			n++
		}
	}
	return n
}

// handOff is the path of a call with more nodes than the buffer holds:
// once the staged batch (if any) has been taken — so the producer's
// earlier updates apply first — it hands the call to the worker as one
// step and waits until Apply has returned, then reports the terminal
// error if the driver has failed. A hand-off not yet taken when the
// driver closes or fails is withdrawn, so Apply never sees it; one
// already taken is waited out, since the worker is reading the caller's
// slices. d.mu must be held.
func (d *Driver) handOff(ids []int, vals []int64) error {
	for d.dirty || d.handVals != nil {
		d.c.Wait()
		if err := d.gate(); err != nil {
			return err
		}
	}
	d.handIDs, d.handVals = ids, vals
	mine := d.handTaken + 1
	d.c.Broadcast()
	for d.handDone < mine {
		if d.handTaken < mine {
			if err := d.gate(); err != nil {
				d.handIDs, d.handVals = nil, nil
				return err
			}
		}
		d.c.Wait()
	}
	d.stats.Enqueued += int64(len(vals))
	return d.err
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
		if !d.dirty && !d.inFlight && d.handVals == nil {
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
// batch — or a hand-off, which waits only while nothing staged before
// it is left — and applies it as one protocol step. Taking clears the
// buffer before Apply runs, so producers refill (and re-coalesce)
// concurrently with the execution — that window is exactly where the
// backlog of a slow step collapses into one fresh batch.
func (d *Driver) run() {
	defer close(d.done)
	d.mu.Lock()
	for {
		for !d.dirty && d.handVals == nil && !d.closed && d.err == nil {
			d.c.Wait()
		}
		if d.closed || d.err != nil {
			d.mu.Unlock()
			return
		}
		var ids []int
		var vals []int64
		handed := d.handVals != nil
		if handed {
			ids, vals = d.handIDs, d.handVals
			d.handIDs, d.handVals = nil, nil
			d.handTaken++
		} else {
			d.takeIDs, d.takeVals = d.pend.Take(d.takeIDs[:0], d.takeVals[:0])
			ids, vals = d.takeIDs, d.takeVals
			d.dirty = false
		}
		d.inFlight = true
		d.stats.Steps++
		d.c.Broadcast() // buffer space freed: wake waiting producers
		d.mu.Unlock()

		err := d.cfg.Apply(ids, vals)

		d.mu.Lock()
		d.inFlight = false
		if handed {
			d.handDone++
		}
		if err != nil && d.err == nil {
			d.err = err
		}
		d.c.Broadcast()
	}
}
