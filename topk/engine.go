package topk

import (
	"errors"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/netrun"
	"repro/internal/order"
	"repro/internal/runtime"
	"repro/internal/shardrun"
	"repro/internal/transport"
	"repro/internal/wire"
)

// engine is everything a Monitor needs of an execution engine. All of
// them run the same coordinator core, so the ledgers and stats are the
// same types everywhere; Err is the terminal failure of a link-backed
// engine (always nil on the in-process ones).
type engine interface {
	Observe(vals []int64) []int
	ObserveDelta(ids []int, vals []int64) []int
	Top() []int
	AppendTop(dst []int) []int
	Ledger() *comm.Ledger
	Stats() coord.Stats
	Err() error
	// AppendCheckpoint appends one sealed frame of the checkpoint chain,
	// of generation gen: the base frame when base == 0, else a delta on
	// the base of generation base carrying the values of the nodes of
	// dirty (one bit a node; nil: every node).
	AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error)
	Close()
}

// linked is the additional surface of the link-backed engines (networked,
// tree). The accessors that expose it reach it through one type assertion
// and report the documented zero value on the others.
type linked interface {
	Health() coord.Health
	TransportStats() transport.LinkStats
	Overhead() comm.Counts
	OverheadBytes() comm.Bytes
	TreeStats() (wire.TreeStats, error)
}

var (
	_ engine = (*core.Monitor)(nil) // both in-process engines
	_ engine = (*netrun.Engine)(nil)
	_ engine = (*shardrun.Engine)(nil)
	_ linked = (*netrun.Engine)(nil)
	_ linked = (*shardrun.Engine)(nil)
	_ ranked = (*core.Monitor)(nil)
)

// errClosed is what every step and barrier of a closed monitor returns.
var errClosed = errors.New("topk: monitor is closed")

// closed is the engine a Monitor holds after Close: steps fail with
// errClosed and every read reports the zero value.
type closed struct{ led comm.Ledger }

var closedEngine engine = new(closed)

func (*closed) Observe([]int64) []int             { return nil }
func (*closed) ObserveDelta([]int, []int64) []int { return nil }
func (*closed) Top() []int                        { return nil }
func (*closed) AppendTop(dst []int) []int         { return dst }
func (c *closed) Ledger() *comm.Ledger            { return &c.led }
func (*closed) Stats() coord.Stats                { return coord.Stats{} }
func (*closed) Err() error                        { return errClosed }
func (*closed) Close()                            {}

func (*closed) AppendCheckpoint([]byte, uint64, uint64, []uint64) ([]byte, error) {
	return nil, errClosed
}

// asEngine erases a constructor's concrete engine type, keeping a failed
// construction a nil engine.
func asEngine[E engine](e E, err error) (engine, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// engineKind maps a validated configuration to the engine fingerprint a
// checkpoint frame records, so a frame never restores into a different
// engine than the one that took it.
func engineKind(cfg Config) uint8 {
	switch {
	case !cfg.Tree.zero():
		return wire.EngineShard
	case cfg.Transport != nil:
		return wire.EngineNet
	case cfg.Concurrent:
		return wire.EngineConc
	default:
		return wire.EngineSeq
	}
}

// fanoutConfig maps the public configuration to the link-backed engines'
// (shardrun.Config is netrun's plus the tree shape, which the loopback
// tree constructors fill in).
func fanoutConfig(cfg Config) shardrun.Config {
	return shardrun.Config{
		N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, Epsilon: cfg.Epsilon,
		Redial: cfg.redialInternal(), RetryBudget: cfg.RetryBudget,
		RetryBackoff: cfg.RetryBackoff, OnEvent: cfg.onEventInternal(),
	}
}

// foldMirror folds the deltas of a link-backed engine's checkpoint chain
// into its base envelope c: every delta's values, held to the value
// domain, patch the value mirror c.Last — what the engine replays to its
// peers — and the machine frame the chain ends on is returned.
func foldMirror(cfg Config, c *wire.Checkpoint, deltas [][]byte) ([]byte, error) {
	if len(deltas) > 0 && len(c.Last) != cfg.Nodes {
		return nil, badRestore(nil, "checkpoint mirror has %d values for n=%d", len(c.Last), cfg.Nodes)
	}
	maxVal := order.MaxValueFor(cfg.Nodes)
	return coord.FoldDeltas(c, cfg.Nodes, deltas, func(ids []int, vals []int64) error {
		for j, id := range ids {
			if v := vals[j]; v > maxVal || v < -maxVal {
				return badRestore(nil, "node %d value %d outside the value domain [-%d, %d]", id, v, maxVal, maxVal)
			}
			c.Last[id] = vals[j]
		}
		return nil
	})
}

// buildEngine constructs the engine a validated configuration selects —
// fresh, or (c != nil) from a checkpoint chain that engine took: base
// envelope c and the delta frames after it. It is the one place engine
// identity is switched on. ordered is NewOrdered's: the coordinator's
// ordered mode, which only the two in-process engines run (NewOrdered
// rejects the configurations that select another).
func buildEngine(cfg Config, c *wire.Checkpoint, deltas [][]byte, ordered bool) (engine, error) {
	fc := fanoutConfig(cfg)
	lc := core.Config{N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, Epsilon: cfg.Epsilon, Ordered: ordered}
	kind := engineKind(cfg)
	var mach []byte // link-backed restores: the machine frame the chain ends on
	if c != nil && (kind == wire.EngineShard || kind == wire.EngineNet) {
		var err error
		if mach, err = foldMirror(cfg, c, deltas); err != nil {
			return nil, err
		}
	}
	switch kind {
	case wire.EngineShard:
		if c == nil {
			return asEngine(shardrun.NewLoopbackTree(fc, cfg.Tree.Branch, cfg.Tree.Depth))
		}
		return asEngine(shardrun.RestoreLoopbackTree(fc, cfg.Tree.Branch, cfg.Tree.Depth, mach, c.Last))
	case wire.EngineNet:
		var links []transport.Link
		for _, l := range cfg.Transport.Links() {
			links = append(links, l) // method sets match; Stats is optional and probed dynamically
		}
		if c == nil {
			return asEngine(netrun.New(fc.Core(), links))
		}
		return asEngine(netrun.Restore(fc.Core(), links, mach, c.Last))
	default:
		// The in-process engines are one monitor on two hosts: the bank
		// swept inline, or by a pool of min(n, GOMAXPROCS) shard goroutines.
		host := core.Inline
		if kind == wire.EngineConc {
			host = runtime.Sharded(0)
		}
		if c == nil {
			return core.NewOn(lc, host), nil
		}
		return asEngine(core.RestoreChainOn(lc, host, c, deltas))
	}
}

// lock serializes an engine access against the ingest worker's protocol
// steps in asynchronous mode; a synchronous monitor is single-threaded by
// contract and takes no lock. Pair it with a deferred unlock.
func (m *Monitor) lock() {
	if m.drv != nil {
		m.engineMu.Lock()
	}
}

func (m *Monitor) unlock() {
	if m.drv != nil {
		m.engineMu.Unlock()
	}
}

// step finishes one synchronous observation call (and one asynchronous
// batch): a terminally degraded — or closed — engine fails it, otherwise
// the applied step counts toward the next automatic checkpoint.
func (m *Monitor) step(top []int) ([]int, error) {
	if err := m.eng.Err(); err != nil {
		return nil, err
	}
	m.maybeCheckpoint()
	return top, nil
}

// observed tells a monitor that writes a checkpoint chain which nodes a
// call is about to move — ids, or every node when ids is nil. A monitor
// without a store keeps no such set.
func (m *Monitor) observed(ids []int) {
	if m.chain != nil {
		m.chain.observed(ids, m.cfg.Nodes)
	}
}

func convCounts(c comm.Counts) Counts { return Counts{Up: c.Up, Down: c.Down, Broadcast: c.Bcast} }
func convBytes(b comm.Bytes) Bytes    { return Bytes{Up: b.Up, Down: b.Down, Broadcast: b.Bcast} }
