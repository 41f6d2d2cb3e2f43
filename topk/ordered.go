package topk

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/runtime"
)

// OrderedMonitor tracks not only which k nodes hold the largest values
// but their exact ranking. It implements the extension the paper sketches
// as future work (§5): the k-boundary is maintained by the main algorithm
// and, within the top band, neighbor-midpoint filters in the style of Lam
// et al. keep the coordinator's ranking estimate exact.
//
// Rank reports cost more communication than set reports (the band's
// internal order changes are otherwise free); see experiment E13 for the
// measured gap. Both engines are available; as with Monitor, they produce
// identical rankings and identical message counts for the same seed.
type OrderedMonitor struct {
	cfg    Config
	maxVal int64
	seq    *core.OrderedMonitor
	conc   *runtime.OrderedRuntime
}

// NewOrdered validates cfg and creates an OrderedMonitor. Concurrent
// monitors must be Closed to release their goroutines. The ordered
// variant supports the sequential and concurrent engines only, and
// supports neither Epsilon (ranks have no ε-approximate semantics yet;
// see ROADMAP.md) nor asynchronous ingestion nor durable checkpointing
// (the order-repair layer has no snapshot form yet). As with New, a
// rejected
// configuration is reported as a *ConfigError naming the offending
// field, and a Transport the constructor took ownership of is closed
// before the error returns.
func NewOrdered(cfg Config) (*OrderedMonitor, error) {
	if err := validateShape(cfg); err != nil {
		return nil, err
	}
	if cfg.Epsilon != 0 {
		return nil, badConfig(cfg, "Epsilon", "not supported by the ordered monitor (got %v); see ROADMAP.md for the ε-aware ordered variant", cfg.Epsilon)
	}
	if cfg.Transport != nil {
		return nil, badConfig(cfg, "Transport", "not supported by the ordered monitor")
	}
	if cfg.Shards != 0 {
		return nil, badConfig(cfg, "Shards", "not supported by the ordered monitor, got %d", cfg.Shards)
	}
	if !cfg.Tree.zero() {
		return nil, badConfig(cfg, "Tree", "not supported by the ordered monitor, got %d^%d", cfg.Tree.Branch, cfg.Tree.Depth)
	}
	if cfg.Ingest.QueueDepth != 0 || cfg.Ingest.Overflow != OverflowBlock {
		return nil, badConfig(cfg, "Ingest", "asynchronous ingestion is not supported by the ordered monitor")
	}
	if cfg.Checkpoint.Store != nil || cfg.Checkpoint.Every != 0 {
		return nil, badConfig(cfg, "Checkpoint", "durable checkpointing is not supported by the ordered monitor; see ROADMAP.md")
	}
	m := &OrderedMonitor{cfg: cfg, maxVal: maxValueFor(cfg.Nodes, cfg.DistinctValues)}
	if cfg.Concurrent {
		m.conc = runtime.NewOrdered(runtime.Config{N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.DistinctValues})
	} else {
		m.seq = core.NewOrdered(core.Config{N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.DistinctValues})
	}
	return m, nil
}

// Observe feeds one time step and returns the top-k node ids ordered by
// rank, largest value first. The returned slice is freshly allocated.
// As with Monitor.Observe, a wrong-length input or a value outside
// [-MaxValue, MaxValue] is rejected with an error before any state
// changes; no input can panic the monitor.
func (m *OrderedMonitor) Observe(vals []int64) ([]int, error) {
	if len(vals) != m.cfg.Nodes {
		return nil, fmt.Errorf("topk: observed %d values for %d nodes", len(vals), m.cfg.Nodes)
	}
	if err := checkValues(m.maxVal, nil, vals); err != nil {
		return nil, err
	}
	switch {
	case m.seq != nil:
		return m.seq.Observe(vals), nil
	case m.conc != nil:
		return m.conc.Observe(vals), nil
	default:
		return nil, errors.New("topk: monitor is closed")
	}
}

// MaxValue returns the largest observation magnitude the monitor
// accepts, exactly as Monitor.MaxValue.
func (m *OrderedMonitor) MaxValue() int64 { return m.maxVal }

// Top returns the most recently reported ranking without consuming a
// step (empty before the first Observe).
func (m *OrderedMonitor) Top() []int {
	switch {
	case m.seq != nil:
		return m.seq.Top()
	case m.conc != nil:
		return m.conc.Top()
	default:
		return nil
	}
}

// Counts returns the total messages exchanged so far.
func (m *OrderedMonitor) Counts() Counts {
	var c comm.Counts
	switch {
	case m.seq != nil:
		c = m.seq.Counts()
	case m.conc != nil:
		c = m.conc.Counts()
	}
	return Counts{Up: c.Up, Down: c.Down, Broadcast: c.Bcast}
}

// Phases returns the per-phase message breakdown. Order-layer repair
// traffic is attributed to the handler phase.
func (m *OrderedMonitor) Phases() PhaseCounts {
	var led *comm.Ledger
	switch {
	case m.seq != nil:
		led = m.seq.Ledger()
	case m.conc != nil:
		led = m.conc.Ledger()
	default:
		return PhaseCounts{}
	}
	conv := func(c comm.Counts) Counts { return Counts{Up: c.Up, Down: c.Down, Broadcast: c.Bcast} }
	return PhaseCounts{
		Violation: conv(led.PhaseCounts(comm.PhaseViolation)),
		Handler:   conv(led.PhaseCounts(comm.PhaseHandler)),
		Reset:     conv(led.PhaseCounts(comm.PhaseReset)),
	}
}

// Stats returns the boundary layer's behavioural counters (sequential
// engine only; the concurrent engine reports zeroes).
func (m *OrderedMonitor) Stats() Stats {
	if m.seq != nil {
		s := m.seq.Stats()
		return Stats{Steps: s.Steps, ViolationSteps: s.ViolationSteps, Resets: s.Resets, TopChanges: s.TopChanges}
	}
	return Stats{}
}

// Close releases the goroutines of a concurrent monitor. No-op for the
// sequential engine; idempotent.
func (m *OrderedMonitor) Close() {
	if m.conc != nil {
		m.conc.Close()
		m.conc = nil
	}
	m.seq = nil
}
