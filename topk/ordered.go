package topk

import "repro/internal/order"

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
	// m runs the coordinator in its ordered mode; every accessor but the
	// ranking is Monitor's.
	m *Monitor
}

// ranked is the additional surface of an engine whose coordinator runs the
// ordered mode, reached like linked through one type assertion.
type ranked interface {
	AppendRanking(dst []int) []int
}

// NewOrdered validates cfg and creates an OrderedMonitor. Concurrent
// monitors must be Closed to release their goroutines. The ordered
// variant supports the sequential and concurrent engines only, and
// supports neither Epsilon (ranks have no ε-approximate semantics yet;
// see ROADMAP.md) nor asynchronous ingestion nor durable checkpointing
// (the order-repair layer has no snapshot form yet). As with New, a
// rejected configuration is reported as a *ConfigError naming the
// offending field, and a Transport the constructor took ownership of is
// closed before the error returns.
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
	if !cfg.Tree.zero() {
		return nil, badConfig(cfg, "Tree", "not supported by the ordered monitor, got %d^%d", cfg.Tree.Branch, cfg.Tree.Depth)
	}
	if cfg.Ingest.QueueDepth != 0 {
		return nil, badConfig(cfg, "Ingest", "asynchronous ingestion is not supported by the ordered monitor")
	}
	if cfg.Checkpoint.Store != nil || cfg.Checkpoint.Every != 0 {
		return nil, badConfig(cfg, "Checkpoint", "durable checkpointing is not supported by the ordered monitor; see ROADMAP.md")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	eng, err := buildEngine(cfg, nil, nil, true)
	if err != nil {
		return nil, err
	}
	return &OrderedMonitor{m: &Monitor{cfg: cfg, maxVal: order.MaxValueFor(cfg.Nodes), eng: eng}}, nil
}

// Observe feeds one time step and returns the top-k node ids ordered by
// rank, largest value first. The returned slice is freshly allocated.
// As with Monitor.Observe, a wrong-length input or a value outside
// [-MaxValue, MaxValue] is rejected with an error before any state
// changes; no input can panic the monitor.
func (o *OrderedMonitor) Observe(vals []int64) ([]int, error) {
	if _, err := o.m.Observe(vals); err != nil {
		return nil, err
	}
	return o.Top(), nil
}

// MaxValue returns the largest observation magnitude the monitor
// accepts, exactly as Monitor.MaxValue.
func (o *OrderedMonitor) MaxValue() int64 { return o.m.MaxValue() }

// Top returns the most recently reported ranking without consuming a
// step (empty before the first Observe).
func (o *OrderedMonitor) Top() []int {
	if r, ok := o.m.eng.(ranked); ok {
		return r.AppendRanking(nil)
	}
	return nil // closed
}

// Counts returns the total messages exchanged so far.
func (o *OrderedMonitor) Counts() Counts { return o.m.Counts() }

// Phases returns the per-phase message breakdown. Order-layer repair
// traffic is attributed to the handler phase.
func (o *OrderedMonitor) Phases() PhaseCounts { return o.m.Phases() }

// Bytes returns the total charged model bytes exchanged so far, exactly as
// Monitor.Bytes.
func (o *OrderedMonitor) Bytes() Bytes { return o.m.Bytes() }

// BytesByPhase returns the per-phase charged byte breakdown. Order-layer
// repair traffic is attributed to the handler phase.
func (o *OrderedMonitor) BytesByPhase() PhaseBytes { return o.m.BytesByPhase() }

// Stats returns the boundary layer's behavioural counters.
func (o *OrderedMonitor) Stats() Stats { return o.m.Stats() }

// Close releases the goroutines of a concurrent monitor. No-op for the
// sequential engine; idempotent.
func (o *OrderedMonitor) Close() { o.m.Close() }
