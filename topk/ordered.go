package topk

import "repro/internal/order"

// ranked is the additional surface of an engine whose coordinator runs the
// ordered mode, reached like the link engine (Monitor.linked) through one
// type assertion.
type ranked interface {
	AppendRanking(dst []int) []int
}

// NewOrdered validates cfg and creates a Monitor that tracks not only
// which k nodes hold the largest values but their exact ranking, read with
// AppendRanking. It implements the extension the paper sketches as future
// work (§5): the k-boundary is maintained by the main algorithm and,
// within the top band, neighbor-midpoint filters in the style of Lam et
// al. keep the coordinator's ranking estimate exact. Every other method
// behaves as on a monitor from New; order-layer repair traffic is
// attributed to the handler phase.
//
// Rank reports cost more communication than set reports (the band's
// internal order changes are otherwise free); see experiment E13 for the
// measured gap. The ordered mode runs on the in-process engine, on either
// host, with identical rankings and identical message counts for the same
// seed, with or without asynchronous ingestion. It supports
// neither Epsilon (ranks have no ε-approximate semantics yet; see
// ROADMAP.md) nor durable checkpointing (the order-repair layer has no
// snapshot form yet). As with New, a rejected configuration is reported
// as a *ConfigError naming the offending field, and a Transport the
// constructor took ownership of is closed before the error returns.
func NewOrdered(cfg Config) (*Monitor, error) {
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
	return startMonitor(&Monitor{cfg: cfg, maxVal: order.MaxValueFor(cfg.Nodes), eng: eng})
}

// AppendRanking appends the most recently reported top-k ids of a monitor
// from NewOrdered by rank, largest value first, to dst and returns the
// extended slice (nothing before the first observation). A monitor from
// New or Restore, and a closed one, append nothing. With a dst of
// capacity >= K it performs no allocation.
func (m *Monitor) AppendRanking(dst []int) []int {
	m.lock()
	defer m.unlock()
	if r, ok := m.eng.(ranked); ok {
		return r.AppendRanking(dst)
	}
	return dst
}
