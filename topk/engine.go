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
	_ engine = (*core.Monitor)(nil) // the in-process engine
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

// engineKind maps a validated configuration to the engine fingerprint a
// checkpoint frame records, so a frame never restores into a different
// engine than the one that took it. The in-process engine writes
// wire.EngineSeq on either host.
func engineKind(cfg Config) uint8 {
	switch {
	case !cfg.Tree.zero():
		return wire.EngineShard
	case cfg.Transport != nil:
		return wire.EngineNet
	default:
		return wire.EngineSeq
	}
}

// fanoutConfig maps the public configuration to the link-backed engines'
// (shardrun.Config is netrun's plus the tree shape, which the loopback
// tree constructor fills in).
func fanoutConfig(cfg Config) shardrun.Config {
	return shardrun.Config{
		N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, Epsilon: cfg.Epsilon,
		Redial: cfg.redialInternal(), OnEvent: cfg.onEventInternal(),
	}
}

// foldMirror is the one check of a link-backed engine's checkpoint chain,
// base envelope c and the deltas after it, run before any link is used:
// c carries no bank frame, the value mirror c.Last — what the engine
// replays to its peers — holds one value per node; every delta's values,
// each held to the value domain, patch it; and the machine frame the chain
// ends on must open under cfg. It returns that machine.
func foldMirror(cfg Config, c *wire.Checkpoint, deltas [][]byte) (*coord.Machine, error) {
	if len(c.Nodes) != 0 {
		return nil, badRestore(nil, "a link-backed checkpoint carrying a bank frame of %d bytes", len(c.Nodes))
	}
	if len(c.Last) != cfg.Nodes {
		return nil, badRestore(nil, "checkpoint mirror has %d values for n=%d", len(c.Last), cfg.Nodes)
	}
	maxVal := order.MaxValueFor(cfg.Nodes)
	frame, err := coord.FoldDeltas(c, cfg.Nodes, deltas, func(ids []int, vals []int64) error {
		for j, id := range ids {
			if v := vals[j]; v > maxVal || v < -maxVal {
				return badRestore(nil, "node %d value %d outside the value domain [-%d, %d]", id, v, maxVal, maxVal)
			}
			c.Last[id] = vals[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return coord.OpenMachine(cfg.Nodes, cfg.K, cfg.Epsilon, frame)
}

// buildEngine constructs the engine a validated configuration selects —
// fresh, or (c != nil) from a checkpoint chain that engine took: base
// envelope c and the delta frames after it. It is the one place engine
// identity is switched on. ordered is NewOrdered's: the coordinator's
// ordered mode, which only the in-process engine runs (NewOrdered rejects
// the configurations that select another).
//
// A link-backed restore is the engine a fresh build makes, which then
// resumes the chain's machine over its value mirror (fanout.Engine.Resume);
// a chain foldMirror refuses closes the links taken from the Transport.
func buildEngine(cfg Config, c *wire.Checkpoint, deltas [][]byte, ordered bool) (engine, error) {
	kind := engineKind(cfg)
	if kind == wire.EngineSeq {
		// The in-process engine picks its host from n and GOMAXPROCS: a
		// pool of shard goroutines where n leaves each a band of nodes the
		// pool is measured to win on, else the bank swept inline.
		lc := core.Config{N: cfg.Nodes, K: cfg.K, Seed: cfg.Seed, Epsilon: cfg.Epsilon, Ordered: ordered}
		if c == nil {
			return core.NewOn(lc, runtime.Sharded), nil
		}
		m, err := core.RestoreOn(lc, runtime.Sharded, c, deltas)
		if err != nil {
			return nil, err // not a nil *core.Monitor in an engine
		}
		return m, nil
	}
	var links []transport.Link
	if kind == wire.EngineNet {
		for _, l := range cfg.Transport.Links() {
			links = append(links, l) // method sets match; Stats is optional and probed dynamically
		}
	}
	var mach *coord.Machine // a restore's: the machine the chain ends on
	var err error
	if c != nil {
		if mach, err = foldMirror(cfg, c, deltas); err != nil {
			for _, l := range links {
				l.Close()
			}
			return nil, err
		}
	}
	var eng interface {
		engine
		Resume(mach *coord.Machine, last []int64)
	}
	if kind == wire.EngineShard {
		eng, err = shardrun.NewLoopbackTree(fanoutConfig(cfg), cfg.Tree.Branch, cfg.Tree.Depth)
	} else {
		eng, err = netrun.New(fanoutConfig(cfg).Core(), links)
	}
	if err != nil {
		return nil, err
	}
	if mach != nil {
		eng.Resume(mach, c.Last)
	}
	return eng, nil
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
