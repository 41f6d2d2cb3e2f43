// Package topk is the public API of this repository: continuous,
// communication-efficient monitoring of the k nodes holding the largest
// values among n distributed data streams, after
//
//	Mäcker, Malatyali, Meyer auf der Heide:
//	"Online Top-k-Position Monitoring of Distributed Data Streams"
//	(IPDPS 2015, arXiv:1410.7912).
//
// A Monitor plays the coordinator-plus-nodes system of the paper against
// observation vectors supplied one time step at a time. After every
// Observe call the reported top-k set is exact — the protocols inside are
// Las Vegas, randomness affects only the amount of communication — and the
// Counts method exposes how many model messages (node→coordinator unicast,
// coordinator→node unicast, broadcast) the system has exchanged so far.
// Setting Config.Epsilon relaxes exactness to a guaranteed
// ε-approximation (the tolerance variant of arXiv:1601.04448) for
// substantially less communication; observation magnitudes are bounded by
// Monitor.MaxValue, and no input to any method of this package can panic
// the monitor.
//
// On "similar" inputs, where values change slowly, communication is orders
// of magnitude below forwarding every observation: the coordinator assigns
// every node a filter interval and nodes stay silent while their values
// remain inside it. Against an offline optimum that sets filters
// clairvoyantly, the algorithm is O((log ∆ + k)·log n)-competitive in
// expectation, where ∆ bounds the gap between the k-th and (k+1)-st
// largest values.
//
// # Sparse ingestion
//
// The computational cost mirrors the communication cost: ObserveDelta
// ingests only the streams whose value changed this step, so a
// violation-free step costs O(#changed nodes) and performs no heap
// allocation — the regime a large deployment with millions of mostly-idle
// streams lives in. Observe (the dense form) and ObserveDelta may be
// interleaved freely and produce identical reports and identical message
// counts for the same logical value sequence. Nodes hold the value 0
// until their first observation.
//
// Both ingestion methods return a read-only view of the current top-k set
// that remains valid until the next step; use AppendTop to retain a copy —
// the copy is caller-owned and mutating it never affects the monitor.
//
// Three execution engines are available: a fast deterministic in-process
// engine (default), a networked engine that drives the wire protocol over
// a Transport's links so the monitored nodes can live in other processes
// (Config.Transport; see Loopback, ServeNodes and cmd/topkmon's
// -serve/-join modes), and a multi-coordinator engine that splits the
// coordinator itself into a tree of sub-coordinators (Config.Tree). The
// in-process engine picks where its steps run, with no setting: at 2¹⁶
// nodes and more, on a machine with several processors, it starts a pool
// of shard goroutines, at least 2¹⁵ nodes a shard, hands it every Observe
// call and runs every ObserveDelta call inline, where the pool measured
// slower. All run the same coordinator core (one copy of Algorithm 1's
// decision logic); the first two produce identical reports, identical
// message counts and identical charged bytes for the same seed, whatever
// the host, and the multi-coordinator engine matches them exactly at any
// shape.
//
// A tree of depth 1 is a flat star of Branch leaf shards, each a host of
// its range; deeper, each interior coordinator is a host of its whole
// subtree: it replays its children's bid logs against the subtree's own
// cut and forwards the one log a host of its range would write, so the
// root serves Branch^Depth leaf shards while every machine holds only
// Branch links. Reports and all model ledgers are bit-identical to the
// in-process engine's; Monitor.TreeStats exposes each level's
// coordination traffic.
//
// Config.Checkpoint adds durable crash-restart: the monitor persists
// CRC-sealed state frames to a CheckpointStore (FileCheckpoints,
// MemCheckpoints) at idle step boundaries — a base frame, then deltas
// that cost what changed — and Restore rebuilds a monitor —
// bit-identically on the in-process engine, oracle-exact after a forced
// filter reset on the networked ones — from the newest valid base and
// its deltas after the coordinator process itself dies.
package topk

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/comm"
	"repro/internal/fanout"
	"repro/internal/ingest"
	"repro/internal/order"
)

// Counts reports exchanged messages by kind. Every kind has unit cost in
// the model; a broadcast counts once no matter how many nodes receive it.
type Counts struct {
	// Up counts node-to-coordinator messages.
	Up int64
	// Down counts coordinator-to-single-node messages.
	Down int64
	// Broadcast counts coordinator broadcasts.
	Broadcast int64
}

// Total returns the overall message count.
func (c Counts) Total() int64 { return c.Up + c.Down + c.Broadcast }

// PhaseCounts breaks the total down by the phase of the algorithm that
// caused the communication.
type PhaseCounts struct {
	// Violation covers the protocols started by filter-violating nodes.
	Violation Counts
	// Handler covers the coordinator's violation handler including
	// midpoint broadcasts.
	Handler Counts
	// Reset covers full filter resets (including initialization).
	Reset Counts
}

// Stats exposes behavioural counters of a run.
type Stats struct {
	// Steps is the number of protocol steps so far: one per Observe or
	// ObserveDelta call, or under asynchronous ingestion one per applied
	// batch (IngestStats.Batches).
	Steps int64
	// ViolationSteps counts steps with at least one filter violation.
	ViolationSteps int64
	// HandlerCalls counts runs of the coordinator's violation handler.
	HandlerCalls int64
	// Resets counts full filter recomputations (including the initial one).
	Resets int64
	// TopChanges counts steps whose reported set differed from the
	// previous step's.
	TopChanges int64
}

// Config parameterizes a Monitor.
type Config struct {
	// Nodes is the number of distributed streams (1 <= n < 2^31).
	Nodes int
	// K is the size of the monitored top set (1 <= K <= Nodes).
	K int
	// Seed drives the protocol randomness. Two monitors with equal
	// configuration and seed behave identically message for message.
	Seed uint64
	// Epsilon selects ε-approximate monitoring (0 <= Epsilon < 1), after
	// Mäcker et al., "On Competitive Algorithms for Approximations of
	// Top-k-Position Monitoring" (arXiv:1601.04448): node filters widen to
	// (1±ε) bands around the separating threshold, violations whose
	// learned extrema still fit one band skip the expensive filter reset,
	// and protocol participants retire early once they are within
	// tolerance of the running best. Every report is then a valid
	// ε-approximation of the true top-k — any reported node's key is
	// within the (1±ε) band of a threshold that also bounds every
	// unreported node — instead of exact, in exchange for substantially
	// less communication on drifting workloads (see EXPERIMENTS.md E19).
	// Tolerances are quantized to multiples of 2^-20. At 0 (the default)
	// the monitor is bit-identical to the exact algorithm, ledgers
	// included. All three engines support it.
	Epsilon float64
	// Ingest configures asynchronous ingestion: with a positive
	// QueueDepth, Observe and ObserveDelta stage their updates in a
	// bounded per-node coalescing queue and return immediately while a
	// background worker executes the protocol steps, and Drain recovers
	// synchronous semantics on demand. The zero value keeps every
	// observation call blocking. All three engines support it; see the
	// Ingest type for the coalescing and backpressure semantics.
	Ingest Ingest
	// Transport selects the networked engine: the monitor drives the wire
	// protocol over the transport's links, one peer per link, instead of
	// an in-process engine. Use Loopback for in-process peers; cmd/topkmon
	// shows the TCP form, with ServeNodes on the far end of every link.
	// Monitors with a Transport must be Closed to release the peers. New takes ownership of the Transport: it
	// is closed on any New error (the links are unusable after a failed
	// handshake) and by Monitor.Close.
	//
	// The networked and sharded engines pipeline their link I/O: fan-outs
	// send to every peer before gathering the replies, and ack-only
	// commands coalesce into batched frames, so step latency follows the
	// slowest peer instead of the peer count. Reports, message counts and
	// charged bytes are those of the in-process engine.
	Transport Transport
	// Redial, when set, is called by the networked engine during failover
	// to obtain a replacement link for a dead peer (the far end must be
	// running ServeNodes); the replacement adopts the dead peer's exact node
	// range. When nil, or when a redial fails, the range is merged into a
	// surviving neighbor instead. Networked monitors only: Redial without
	// Transport is refused (a tree monitor redials its own loopback
	// subtrees). Recovery, redial or merge, makes at most three attempts
	// before the monitor turns terminally degraded (see Health); the
	// waits between them start at 10 ms, jittered, and double to a 1 s
	// cap.
	Redial func() (Link, error)
	// OnEvent, when set, receives failover events synchronously from the
	// monitor's own goroutine; the callback must not call back into the
	// monitor. In-process engines never emit events.
	OnEvent func(Event)
	// Tree selects the multi-coordinator engine: the node space is split
	// into Branch^Depth contiguous ranges, each owned by a leaf
	// sub-coordinator, under a tree of Tree.Depth link levels with fan-out
	// Tree.Branch at every node. At depth 1 the root replays its Branch
	// leaf shards' bid logs directly — a flat star; deeper, each root link
	// leads to an interior coordinator relaying to Branch children and
	// answering for them with the bid log one host of its subtree would
	// write. Reports, message counts, charged bytes, phases and stats equal
	// the in-process engine's bit for bit at any shape; the root's link
	// traffic (see Overhead) is the price of removing the
	// single-coordinator bottleneck, while the root's own fan-in stays at
	// Branch links. The zero value disables the engine;
	// Branch^Depth must not exceed Nodes, and Tree is mutually exclusive
	// with Transport. Tree monitors must be Closed.
	Tree Tree
	// Checkpoint configures durable checkpointing: with a Store set the
	// monitor can persist its execution state as CRC-sealed frames —
	// automatically every Checkpoint.Every applied steps, or on demand
	// through Monitor.Checkpoint — and a crashed coordinator process
	// restarts from the latest valid base frame and its deltas with
	// Restore. The zero value
	// disables checkpointing. All three engines support it; see the
	// Checkpoint type for the durability and recovery semantics.
	Checkpoint Checkpoint
}

// Tree is the coordinator shape of Config.Tree: Branch is the fan-out of
// the root and of every interior coordinator (at least 1), Depth the
// number of link levels below the root (at least 1; depth 1 is the flat
// star of Branch shards, and Tree{1, 1} a single shard). A depth-d tree
// serves Branch^d leaf shards while the root maintains only Branch links.
type Tree struct {
	Branch int
	Depth  int
}

// zero reports whether no tree is configured.
func (t Tree) zero() bool { return t == Tree{} }

// Monitor continuously tracks the top-k positions. Create one with New,
// NewOrdered (which adds the ranking within the top set) or Restore.
// A synchronous Monitor is not safe for concurrent use: the model's
// time steps are globally ordered. In asynchronous mode (a positive
// Config.Ingest.QueueDepth) the observation methods, Drain and every
// read accessor are safe for concurrent use — the ingest queue is the
// serialization point — and only Close must wait for producers to stop.
type Monitor struct {
	cfg    Config
	maxVal int64
	eng    engine // closedEngine after Close

	// Asynchronous ingestion (Config.Ingest.QueueDepth > 0): drv owns
	// the coalescing queue and the worker goroutine; engineMu
	// serializes the worker's protocol steps against the read
	// accessors.
	drv      *ingest.Driver
	engineMu sync.Mutex

	// Durable checkpointing (Config.Checkpoint): the generation counter,
	// the steps applied since the last automatic checkpoint, the outcome
	// counters CheckpointStats reports, the buffer every frame is encoded
	// into, and — only with a Store configured — what the monitor
	// remembers of the chain it is writing. In asynchronous mode engineMu
	// guards them (the worker checkpoints under it); a synchronous monitor
	// is single-threaded by contract.
	ckptGen     uint64
	ckptApplied int
	ckptStats   CheckpointStats
	ckptBuf     []byte
	chain       *ckptChain
}

// failNew rejects a configuration, releasing the Transport's links and
// serve loops first: New and NewOrdered take ownership of the Transport,
// so every error return must close it or a retrying caller accumulates
// goroutines.
func failNew(cfg Config, err error) error {
	if cfg.Transport != nil {
		cfg.Transport.Close()
	}
	return err
}

// validateShape checks the two fields every engine's constructor panics
// on, for New, Restore and NewOrdered alike: the node count (engines index
// nodes in 31 bits) and K against it.
func validateShape(cfg Config) error {
	if cfg.Nodes <= 0 || cfg.Nodes > math.MaxInt32 {
		return badConfig(cfg, "Nodes", "must be in [1, 2^31-1], got %d", cfg.Nodes)
	}
	if cfg.K < 1 || cfg.K > cfg.Nodes {
		return badConfig(cfg, "K", "must satisfy 1 <= K <= Nodes, got K=%d Nodes=%d", cfg.K, cfg.Nodes)
	}
	return nil
}

// validateConfig runs the full construction-time validation ladder shared
// by New and Restore. A rejection is a typed *ConfigError naming the
// offending field, and any Transport the configuration carries is closed
// before the error returns (badConfig's contract).
func validateConfig(cfg Config) error {
	if err := validateShape(cfg); err != nil {
		return err
	}
	if !(cfg.Epsilon >= 0) || cfg.Epsilon >= 1 {
		return badConfig(cfg, "Epsilon", "must satisfy 0 <= Epsilon < 1, got %v", cfg.Epsilon)
	}
	if cfg.Redial != nil && cfg.Transport == nil {
		return badConfig(cfg, "Redial", "networked monitors only: set Transport, or leave Redial nil")
	}
	if !cfg.Tree.zero() {
		leaves, err := fanout.Tree(cfg.Tree).Leaves()
		if err != nil {
			return badConfig(cfg, "Tree", "%v", err)
		}
		if leaves > cfg.Nodes {
			return badConfig(cfg, "Tree", "%d^%d = %d leaf shards exceed Nodes=%d", cfg.Tree.Branch, cfg.Tree.Depth, leaves, cfg.Nodes)
		}
		if cfg.Transport != nil {
			return badConfig(cfg, "Tree", "mutually exclusive with Transport")
		}
	}
	if err := validateCheckpoint(cfg); err != nil {
		return err
	}
	if err := validateIngest(cfg); err != nil {
		return err
	}
	if cfg.Transport != nil {
		if links := len(cfg.Transport.Links()); links == 0 || links > cfg.Nodes {
			return badConfig(cfg, "Transport", "must supply 1..Nodes links, got %d for %d nodes", links, cfg.Nodes)
		}
	}
	return nil
}

// New validates cfg and creates a Monitor. A rejected configuration is
// reported as a *ConfigError naming the offending field; New never
// panics, and a Transport it took ownership of is closed on every error
// path.
func New(cfg Config) (*Monitor, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	eng, err := buildEngine(cfg, nil, nil, false)
	if err != nil {
		// The transport's links are unusable after a failed handshake;
		// release them and their serve loops so a retrying caller does not
		// accumulate goroutines.
		return nil, failNew(cfg, err)
	}
	return startMonitor(&Monitor{cfg: cfg, maxVal: order.MaxValueFor(cfg.Nodes), eng: eng})
}

// startMonitor attaches asynchronous ingestion, when configured, to a
// monitor whose engine New or Restore just built.
func startMonitor(m *Monitor) (*Monitor, error) {
	if m.cfg.Checkpoint.Store != nil {
		m.chain = &ckptChain{dirty: make([]uint64, (m.cfg.Nodes+63)/64)}
	}
	if m.cfg.Ingest.QueueDepth > 0 {
		if err := m.startIngest(); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// MaxValue returns the largest observation magnitude the monitor accepts;
// symmetrically, -MaxValue is the smallest. Values outside
// [-MaxValue, MaxValue] make Observe and ObserveDelta return an error —
// never panic, never wrap — because the order-preserving key injection
// key = value·Nodes + tiebreak would overflow int64 (the bound therefore
// shrinks as Nodes grows; it is above 4.6·10¹⁴ even at twenty thousand
// nodes). Callers ingesting unbounded counters should clamp to
// [-MaxValue, MaxValue] before observing.
func (m *Monitor) MaxValue() int64 { return m.maxVal }

// checkValues validates one step's observations against the value
// domain before any engine state is touched, so a rejected step leaves
// the monitor fully usable. ids supplies the node id per value for error
// reporting (nil means vals[i] belongs to node i). Observe, ObserveDelta
// and Oracle share this one check so their rejection semantics cannot
// diverge.
func checkValues(maxVal int64, ids []int, vals []int64) error {
	for j, v := range vals {
		if v > maxVal || v < -maxVal {
			id := j
			if ids != nil {
				id = ids[j]
			}
			return fmt.Errorf("topk: node %d value %d outside the monitor's value domain [-%d, %d]; clamp to Monitor.MaxValue", id, v, maxVal, maxVal)
		}
	}
	return nil
}

// Observe feeds one time step of observations (vals[i] is node i's new
// value, len(vals) == Nodes) and returns the node ids currently holding
// the K largest values, in ascending id order. The returned slice is a
// read-only view owned by the monitor, valid until the next step; use
// AppendTop to retain a copy. It returns an error for a wrong-length
// input, a value outside [-MaxValue, MaxValue] (the step is then rejected
// atomically: no engine state changes and the monitor stays usable), a
// closed monitor, or a networked/sharded engine that is terminally
// degraded (recovery abandoned; the engine then stays wedged on its
// last-good report and every further observation returns the same error).
// A recoverable peer failure does not error: the step reports the
// last-good set, Health().Degraded turns true, and the next observation
// call runs recovery. No input can panic the monitor.
//
// In asynchronous mode (Config.Ingest.QueueDepth > 0) Observe validates
// the step the same way, stages it on the ingest queue and returns a
// nil report immediately — the protocol step runs in the background,
// and later observations of the same node may coalesce with this one.
// Read reports through Top or AppendTop, after a Drain for
// read-your-writes; a full queue blocks until the worker takes the
// staged batch, and a terminal background failure is returned here and
// from Drain.
func (m *Monitor) Observe(vals []int64) ([]int, error) {
	if len(vals) != m.cfg.Nodes {
		return nil, fmt.Errorf("topk: observed %d values for %d nodes", len(vals), m.cfg.Nodes)
	}
	if err := checkValues(m.maxVal, nil, vals); err != nil {
		return nil, err
	}
	if m.drv != nil {
		return nil, m.enqueue(nil, vals)
	}
	m.observed(nil)
	return m.step(m.eng.Observe(vals))
}

// ObserveDelta feeds one time step in which only the streams listed in ids
// changed: vals[j] is node ids[j]'s new value, every other node repeats
// its previous value (0 before its first observation). ids must be
// strictly increasing; both slices may be empty (a step where nothing
// changed) and are not retained, so callers may reuse their buffers. The
// returned slice is a read-only view, and errors behave as with Observe:
// bad ids or a value outside [-MaxValue, MaxValue] reject the step
// atomically before any engine state changes, so a long-running delta
// feed whose accumulated per-node totals drift past the value domain gets
// a descriptive error on exactly the step that crosses it — never a
// panic, never a silently wrapped key.
//
// A violation-free delta step costs O(len(ids)) work and zero heap
// allocations on the in-process engine, independent of Nodes.
//
// In asynchronous mode the call stages the delta and returns a nil
// report immediately, exactly as Observe. Callers may reuse their
// buffers as in synchronous mode: a staged delta is copied into the
// per-node queue, and a delta with more ids than Ingest.QueueDepth,
// which the worker applies straight from the caller's slices, returns
// only after it has been applied.
func (m *Monitor) ObserveDelta(ids []int, vals []int64) ([]int, error) {
	if len(ids) != len(vals) {
		return nil, fmt.Errorf("topk: delta has %d ids but %d values", len(ids), len(vals))
	}
	prev := -1
	for _, id := range ids {
		if id <= prev || id >= m.cfg.Nodes {
			return nil, fmt.Errorf("topk: delta ids must be strictly increasing in [0, %d)", m.cfg.Nodes)
		}
		prev = id
	}
	if err := checkValues(m.maxVal, ids, vals); err != nil {
		return nil, err
	}
	if m.drv != nil {
		return nil, m.enqueue(ids, vals)
	}
	m.observed(ids)
	return m.step(m.eng.ObserveDelta(ids, vals))
}

// Top returns the most recently reported top-k ids without consuming a
// step, as a read-only view (see Observe). Before the first observation
// it returns an empty slice. In asynchronous mode it returns a fresh
// caller-owned copy instead of a view — the background worker may
// invalidate a view at any time — reflecting the latest applied step
// (every staged observation, after a Drain).
func (m *Monitor) Top() []int {
	if m.drv != nil {
		return m.AppendTop(nil)
	}
	return m.eng.Top()
}

// AppendTop appends the most recently reported top-k ids (ascending) to
// dst and returns the extended slice. With a dst of capacity >= K it
// performs no allocation.
func (m *Monitor) AppendTop(dst []int) []int {
	m.lock()
	defer m.unlock()
	return m.eng.AppendTop(dst)
}

// Counts returns the total messages exchanged so far.
func (m *Monitor) Counts() Counts {
	m.lock()
	defer m.unlock()
	return convCounts(m.eng.Ledger().Total())
}

// Phases returns the per-phase message breakdown.
func (m *Monitor) Phases() PhaseCounts {
	m.lock()
	defer m.unlock()
	led := m.eng.Ledger()
	return PhaseCounts{
		Violation: convCounts(led.PhaseCounts(comm.PhaseViolation)),
		Handler:   convCounts(led.PhaseCounts(comm.PhaseHandler)),
		Reset:     convCounts(led.PhaseCounts(comm.PhaseReset)),
	}
}

// Bytes reports the encoded size of the charged messages, by kind. Every
// counted message has a canonical wire encoding (a bid carries a node id
// and a key, a broadcast carries a round number or filter bound and a
// key); Bytes sums those exact encoded lengths, which is the quantity the
// paper's Theorem 4.2 bounds per Top-k change. All engines report
// identical Bytes for the same seed; the networked engine's additional
// framing overhead appears in TransportStats instead.
type Bytes struct {
	// Up counts node-to-coordinator bytes.
	Up int64
	// Down counts coordinator-to-single-node bytes.
	Down int64
	// Broadcast counts coordinator broadcast bytes.
	Broadcast int64
}

// Total returns the overall charged byte volume.
func (b Bytes) Total() int64 { return b.Up + b.Down + b.Broadcast }

// PhaseBytes breaks the charged bytes down by algorithm phase, mirroring
// PhaseCounts.
type PhaseBytes struct {
	Violation Bytes
	Handler   Bytes
	Reset     Bytes
}

// Bytes returns the total charged model bytes exchanged so far.
func (m *Monitor) Bytes() Bytes {
	m.lock()
	defer m.unlock()
	return convBytes(m.eng.Ledger().TotalBytes())
}

// BytesByPhase returns the per-phase charged byte breakdown.
func (m *Monitor) BytesByPhase() PhaseBytes {
	m.lock()
	defer m.unlock()
	led := m.eng.Ledger()
	return PhaseBytes{
		Violation: convBytes(led.PhaseBytes(comm.PhaseViolation)),
		Handler:   convBytes(led.PhaseBytes(comm.PhaseHandler)),
		Reset:     convBytes(led.PhaseBytes(comm.PhaseReset)),
	}
}

// TransportStats returns the frames and framed bytes that crossed the
// links of a networked or sharded monitor, control plane included, links
// since lost to failover too. The in-process engine reports the zero
// value.
func (m *Monitor) TransportStats() TransportStats {
	m.lock()
	defer m.unlock()
	e, _ := m.linked()
	if e == nil {
		return TransportStats{}
	}
	return TransportStats(e.TransportStats())
}

// Overhead returns the root's coordination traffic of a tree monitor:
// Down counts the frames the root sends its links, Up the replies and bid
// logs it receives, with Bytes carrying their encoded sizes. This is the
// cost of splitting the coordinator, kept separate from the algorithm's
// own message ledger (which equals the in-process engine's exactly). Other
// monitors report zeroes.
func (m *Monitor) Overhead() (Counts, Bytes) {
	m.lock()
	defer m.unlock()
	e, tree := m.linked()
	if !tree {
		return Counts{}, Bytes{}
	}
	return convCounts(e.Overhead()), convBytes(e.OverheadBytes())
}

// LevelIO summarizes the coordination traffic of one coordinator-tree
// level: frames and encoded bytes sent down to (and received up from)
// that level's children.
type LevelIO struct {
	Down, Up           int64
	DownBytes, UpBytes int64
}

// TreeStats is the diagnostic profile of a hierarchical monitor (see
// Monitor.TreeStats).
type TreeStats struct {
	// Levels holds one coordination-traffic summary per tree level,
	// deepest interior level first, ending with the root's own overhead
	// ledger.
	Levels []LevelIO
}

// TreeStats polls a tree monitor's diagnostic plane: per-level
// coordination traffic, ending with the root's own overhead ledger. The
// poll itself is free — it is charged to no ledger, appearing only in
// TransportStats — so polling does not perturb the numbers it reports.
// Other monitors return the zero value; a poll interrupted by a
// link failure returns an error and leaves recovery to the next
// observation call.
func (m *Monitor) TreeStats() (TreeStats, error) {
	m.lock()
	defer m.unlock()
	e, tree := m.linked()
	if !tree {
		return TreeStats{}, nil
	}
	ws, err := e.TreeStats()
	if err != nil {
		return TreeStats{}, err
	}
	var out TreeStats
	for _, lv := range ws.Levels {
		out.Levels = append(out.Levels, LevelIO(lv))
	}
	return out, nil
}

// Stats returns behavioural counters. Every engine maintains them in the
// shared coordinator core, so they are identical across engines for the
// same seed.
func (m *Monitor) Stats() Stats {
	m.lock()
	defer m.unlock()
	s := m.eng.Stats()
	return Stats{Steps: s.Steps, ViolationSteps: s.ViolationSteps, HandlerCalls: s.HandlerCalls, Resets: s.Resets, TopChanges: s.TopChanges}
}

// Close releases the shard goroutines of an in-process monitor that runs
// on a pool (2¹⁶ nodes and more, on several processors) and the peers of
// a networked or sharded one, stopping the ingest worker of an
// asynchronous monitor first (observations still staged are discarded —
// Drain before Close for a graceful flush). It is a no-op for a
// synchronous in-process monitor below that size and idempotent
// everywhere. The monitor
// cannot observe after Close; in asynchronous mode it must be the last
// call, after every producer goroutine has stopped.
func (m *Monitor) Close() {
	if m.drv != nil {
		m.drv.Close()
		m.drv = nil
	}
	if m.eng == closedEngine {
		return
	}
	m.eng.Close()
	m.eng = closedEngine
	if m.cfg.Transport != nil {
		m.cfg.Transport.Close()
	}
}

// Oracle computes the exact top-k ids (ascending) of a single observation
// vector with the same deterministic tie-break the Monitor uses (equal
// values: smaller id wins). It is a convenience for verification and for
// batch use; it involves no communication model. Like Observe, it rejects
// values outside the injection's capacity for len(vals) nodes with an
// error instead of panicking.
func Oracle(vals []int64, k int) ([]int, error) {
	if len(vals) == 0 {
		return nil, errors.New("topk: empty observation vector")
	}
	if k < 1 || k > len(vals) {
		return nil, fmt.Errorf("topk: k must satisfy 1 <= k <= %d, got %d", len(vals), k)
	}
	if err := checkValues(order.MaxValueFor(len(vals)), nil, vals); err != nil {
		return nil, err
	}
	return order.Oracle(vals, k), nil
}
