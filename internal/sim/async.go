package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/stream"
)

// AsyncEngine is the engine surface the equivalence-under-async harness
// drives: the sparse observation entry point plus every ledger the
// equivalence contract pins. core.Monitor (sequential, or concurrent on
// internal/runtime's shard pool), netrun.Engine and shardrun.Engine all
// satisfy it structurally.
type AsyncEngine interface {
	ObserveDelta(ids []int, vals []int64) []int
	AppendTop(dst []int) []int
	Counts() comm.Counts
	Bytes() comm.Bytes
	Ledger() *comm.Ledger
	Stats() coord.Stats
}

// AsyncBatch is one applied protocol step recorded from the ingest
// worker: the coalesced batch exactly as the engine executed it.
type AsyncBatch struct {
	IDs  []int
	Vals []int64
}

// AsyncConfig parameterizes one equivalence-under-async run.
type AsyncConfig struct {
	// Steps is the number of observation calls to stage (> 0).
	Steps int
	// K is the top set size (for the oracle check).
	K int
	// Epsilon is the tolerance the engines under test run with: 0
	// demands oracle-exact reports at every barrier, a positive value
	// demands EpsValid ones.
	Epsilon float64
	// QueueDepth and Policy configure the ingest driver under test.
	QueueDepth int
	Policy     ingest.Policy
	// Dense stages every node's current value per observation call (the
	// public dense Observe shape); otherwise only the step's delta is
	// staged.
	Dense bool
	// DrainEvery issues a Drain barrier after every so many observation
	// calls; 0 draws the barrier schedule at random instead, with
	// probability DrainProb per call from a generator seeded by Seed.
	// A final barrier always runs after the last call.
	DrainEvery int
	DrainProb  float64
	// Seed seeds the barrier schedule (not the workload: the caller
	// owns the stream source and the engines' protocol seeds).
	Seed uint64
	// Timeout bounds every Drain so a lost wakeup fails the run instead
	// of hanging it (default 30s).
	Timeout time.Duration
}

// AsyncReport records what one run did — most importantly the applied
// trace and the barrier schedule, which together make any failure
// replayable: feeding Trace to ObserveDelta on a fresh engine of the
// same configuration is, by construction, the synchronous run the
// asynchronous one was compared against.
type AsyncReport struct {
	// ObserveCalls is the number of staged observation calls (Steps).
	ObserveCalls int
	// Batches is the number of coalesced batches the worker applied;
	// under backlog it is below ObserveCalls, and with a barrier after
	// every call it must equal it.
	Batches int
	// Barriers records the schedule: the number of applied batches at
	// the moment each Drain barrier completed.
	Barriers []int
	// Coalesced counts updates superseded before execution.
	Coalesced int64
	// Trace is the applied trace (batch copies, in execution order).
	Trace []AsyncBatch
}

// Schedule renders the recorded coalescing and barrier schedule as one
// line, for attaching to failures.
func (r *AsyncReport) Schedule() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls=%d batches=%d coalesced=%d barriers=%v sizes=[", r.ObserveCalls, r.Batches, r.Coalesced, r.Barriers)
	for i, t := range r.Trace {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", len(t.IDs))
	}
	b.WriteByte(']')
	return b.String()
}

// RunAsync stages cfg.Steps observation calls from src onto async
// through a bounded coalescing ingest driver, issuing Drain barriers on
// the configured schedule. At every barrier it replays the recorded
// applied trace into twin — a second engine of identical configuration
// and seed, driven synchronously — and demands bit-identical reports,
// message counts, charged bytes, per-phase ledgers and stats, plus an
// oracle-exact (ε-valid for Epsilon > 0) report against the applied
// values. The returned report carries the schedule; a non-nil error
// quotes it, so the failing interleaving can be replayed synchronously.
//
// The equivalence this pins is the coalescing-correctness argument of
// DESIGN.md: the protocol consumes only current values, so an
// asynchronous run is indistinguishable — ledgers included — from the
// synchronous run over its applied trace, and with a barrier after
// every call the applied trace is the input trace itself.
func RunAsync(async, twin AsyncEngine, src stream.DeltaSource, cfg AsyncConfig) (*AsyncReport, error) {
	if cfg.Steps <= 0 {
		panic("sim: RunAsync needs Steps > 0")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	n := src.N()
	rep := &AsyncReport{ObserveCalls: cfg.Steps}

	var mu sync.Mutex // guards rep.Trace between worker appends and barrier reads
	drv, err := ingest.New(ingest.Config{
		N:      n,
		Depth:  cfg.QueueDepth,
		Policy: cfg.Policy,
		Apply: func(ids []int, vals []int64) error {
			async.ObserveDelta(ids, vals)
			return nil
		},
		OnApply: func(ids []int, vals []int64) {
			mu.Lock()
			rep.Trace = append(rep.Trace, AsyncBatch{
				IDs:  append([]int(nil), ids...),
				Vals: append([]int64(nil), vals...),
			})
			mu.Unlock()
		},
	})
	if err != nil {
		return rep, err
	}
	defer drv.Close()

	sched := rng.New(cfg.Seed, 0xa57c)
	ids := make([]int, n)
	vals := make([]int64, n)
	dense := make([]int64, n)   // producer-side dense mirror (Dense staging)
	applied := make([]int64, n) // values the engines have executed
	allIDs := make([]int, n)
	for i := range allIDs {
		allIDs[i] = i
	}
	replayed := 0 // batches already fed to the twin

	barrier := func(call int) error {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		err := drv.Drain(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("sim: Drain after call %d: %w [%s]", call, err, rep.Schedule())
		}
		mu.Lock()
		trace := rep.Trace
		mu.Unlock()
		rep.Batches = len(trace)
		rep.Barriers = append(rep.Barriers, len(trace))
		for ; replayed < len(trace); replayed++ {
			b := trace[replayed]
			twin.ObserveDelta(b.IDs, b.Vals)
			for j, id := range b.IDs {
				applied[id] = b.Vals[j]
			}
		}
		if err := compareEngines(async, twin); err != nil {
			return fmt.Errorf("sim: async diverged from its synchronous replay at call %d: %w [%s]", call, err, rep.Schedule())
		}
		top := async.AppendTop(nil)
		if cfg.Epsilon > 0 {
			if !EpsValid(applied, top, cfg.K, cfg.Epsilon) {
				return fmt.Errorf("sim: barrier report %v not ε-valid for the applied values at call %d [%s]", top, call, rep.Schedule())
			}
		} else if want := Oracle(applied, cfg.K); !equalInts(top, want) {
			return fmt.Errorf("sim: barrier report %v != oracle %v at call %d [%s]", top, want, call, rep.Schedule())
		}
		return nil
	}

	for s := 0; s < cfg.Steps; s++ {
		c := src.StepDelta(ids, vals)
		for j := 0; j < c; j++ {
			dense[ids[j]] = vals[j]
		}
		if cfg.Dense {
			err = drv.Enqueue(allIDs, dense)
		} else {
			err = drv.Enqueue(ids[:c], vals[:c])
		}
		if err != nil {
			return rep, fmt.Errorf("sim: enqueue of call %d: %w [%s]", s, err, rep.Schedule())
		}
		due := false
		if cfg.DrainEvery > 0 {
			due = (s+1)%cfg.DrainEvery == 0
		} else {
			due = sched.Float64() < cfg.DrainProb
		}
		if due || s == cfg.Steps-1 {
			if err := barrier(s); err != nil {
				return rep, err
			}
		}
	}
	rep.Coalesced = drv.Stats().Coalesced
	return rep, nil
}

// compareEngines demands that two quiescent engines are bit-identical
// in everything the equivalence suites pin: report, message counts,
// charged bytes, the per-phase ledger breakdowns, and stats.
func compareEngines(a, b AsyncEngine) error {
	if at, bt := a.AppendTop(nil), b.AppendTop(nil); !equalInts(at, bt) {
		return fmt.Errorf("reports %v vs %v", at, bt)
	}
	if ac, bc := a.Counts(), b.Counts(); ac != bc {
		return fmt.Errorf("counts %+v vs %+v", ac, bc)
	}
	if ab, bb := a.Bytes(), b.Bytes(); ab != bb {
		return fmt.Errorf("bytes %+v vs %+v", ab, bb)
	}
	if as, bs := a.Stats(), b.Stats(); as != bs {
		return fmt.Errorf("stats %+v vs %+v", as, bs)
	}
	al, bl := a.Ledger(), b.Ledger()
	for _, ph := range []comm.Phase{comm.PhaseViolation, comm.PhaseHandler, comm.PhaseReset} {
		if ac, bc := al.PhaseCounts(ph), bl.PhaseCounts(ph); ac != bc {
			return fmt.Errorf("phase %v counts %+v vs %+v", ph, ac, bc)
		}
		if ab, bb := al.PhaseBytes(ph), bl.PhaseBytes(ph); ab != bb {
			return fmt.Errorf("phase %v bytes %+v vs %+v", ph, ab, bb)
		}
	}
	return nil
}
