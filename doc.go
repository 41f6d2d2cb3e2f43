// Package repro is a from-scratch Go reproduction of
//
//	Mäcker, Malatyali, Meyer auf der Heide:
//	"Online Top-k-Position Monitoring of Distributed Data Streams"
//	(IPDPS 2015, arXiv:1410.7912).
//
// The public API lives in the repro/topk package. Internal packages hold
// the model substrates (communication accounting, filters, ordered keys,
// protocols, the wire codec and transports, stream generators, baselines,
// the sans-I/O coordinator core and the four execution engines that drive
// it, and the experiment harness); see DESIGN.md for the full inventory
// and EXPERIMENTS.md for the paper-vs-measured record. The benchmarks in
// this directory regenerate every experiment at reduced scale;
// cmd/experiments runs them at full scale.
//
// # Sparse ingestion and the zero-allocation hot path
//
// The paper optimizes communication on "similar" inputs — steps where most
// streams barely move cost no messages. The implementation mirrors that on
// the computational side: topk.Monitor.ObserveDelta ingests only the
// streams whose value changed, so a violation-free step costs
// O(#changed nodes) and performs zero heap allocations (asserted by an
// AllocsPerRun regression test and reported by the benchmarks' allocs/op
// column). Dense Observe is implemented on top of the sparse path; the two
// may be interleaved and are report- and message-count-identical. At
// n ≥ 2¹⁶ on several processors the in-process monitor hands every dense
// step to a pool of shard goroutines of at least 2¹⁵ nodes each
// (internal/runtime), one sweep for the batch and one per protocol
// execution, O(shards) channel operations rather than O(n); sparse steps,
// where the pool measured slower, stay inline. No setting
// picks the host, and counts and frames do not depend on it.
//
// # Wire format and the networked engine
//
// The protocol has a real wire format (internal/wire: a compact varint
// codec with one canonical encoding per message) and a transport layer
// (internal/transport: in-process loopback pipes and length-prefixed
// TCP). The link engine, internal/fanout, drives Algorithm 1 over those
// links so a monitor can span processes — a topk.Monitor over a Transport
// with topk.ServeNodes on the far end of every link, which is all that
// cmd/topkmon's -serve and -join modes are — while staying message-count- and byte-identical to the in-process
// engine for the same seed. A protocol execution is one exchange per
// peer: each host runs the execution's rounds over its own nodes and
// answers with its bid log, which the coordinator replays against the
// true cut (DESIGN.md "One exchange per execution"). Every charged message has an exact encoded
// size, so all ledgers report a bytes column (the quantity Theorem 4.2
// bounds) next to message counts; the transport separately reports the
// framed volume that actually crossed each link. DESIGN.md documents the
// split.
//
// The link engine pipelines its I/O: links buffer
// writes behind an explicit Flush, exchanges fan out to every peer before
// the replies are gathered, and ack-only commands coalesce into
// wire.Batch envelopes — so step latency follows the slowest peer rather
// than the peer count, while reports and all ledgers stay bit-identical
// to the sequential engine (DESIGN.md "Pipelined substrate";
// EXPERIMENTS.md E20). The zero-allocation
// guarantee extends across the wire: a violation-free networked step
// over loopback pipes performs no heap allocation.
//
// # One coordinator core, four substrates
//
// Algorithm 1's coordinator-side decision logic exists exactly once, as
// the sans-I/O state machine of internal/coord: engines feed it events
// and execute its effects over their own substrate (direct calls in
// internal/core, its range sweeps optionally spread over internal/runtime's
// shard goroutines, wire frames
// in internal/fanout, the one link engine, whose root replays the bid logs
// its links answer each protocol execution with, over node hosts or over a
// coordinator tree).
// The fourth engine shards the coordinator itself — topk.Config.Tree or
// topkmon -tree b^d. At depth 1 it splits the node space across a star of
// b leaf shards, bit-identical to the sequential engine at any b, with the
// root-to-shard coordination cost ledgered separately (EXPERIMENTS.md
// E18). Deeper, it stacks that split into a coordinator tree: each
// interior coordinator is a host of its subtree — it replays its
// children's bid logs against the subtree's own cut and forwards the one
// log a host of its range would write — so the root serves Branch^Depth
// leaf shards through Branch links, bit-identical to the sequential engine
// in reports and every model ledger, with each level's coordination
// traffic reported separately (Monitor.TreeStats; EXPERIMENTS.md E22).
//
// The variants are modes of that one machine, not engines of their own:
// the ε tolerance below, and the ordered variant the paper's §5 outlook
// conjectures (topk.NewOrdered, a topk.Monitor whose AppendRanking reads
// the ranking; internal/coord's ordered mode keeps the ranking of the
// top-k exact with Lam et al.'s neighbour-midpoint filters inside the
// band, on the in-process engine, inline or on its shard pool, synchronous
// or through the ingest queue; EXPERIMENTS.md E13, DESIGN.md "The ordered
// mode").
//
// # Approximate monitoring (ε tolerance)
//
// topk.Config.Epsilon selects the ε-tolerant variant of the follow-up
// paper (Mäcker et al., arXiv:1601.04448) on any engine: filters widen
// to (1±ε) bands around the separating threshold, within-tolerance
// violations re-anchor the band instead of running a full FILTERRESET,
// and protocol participants retire early once they cannot beat the
// running best by more than the tolerance. Reports are then valid
// ε-approximations of the true top-k (internal/sim's ε-oracle checks
// every step) in exchange for orders of magnitude less communication on
// drifting inputs (EXPERIMENTS.md E19, BenchmarkApproxComm); Epsilon 0
// is bit-identical to the exact algorithm on every engine.
//
// # Asynchronous ingestion and the Drain barrier
//
// topk.Config.Ingest decouples ingestion from protocol execution on any
// engine: observation calls stage updates into a bounded last-write-wins
// queue (one slot per node — the algorithm only needs current values, so
// a later observation coalesces with a queued one) while a worker runs
// the protocol, and a full queue blocks the producer until the worker
// takes the staged batch, so no update is lost. Monitor.Drain is the
// barrier that recovers synchronous semantics: after it returns,
// reports, counts, bytes and per-phase ledgers are bit-identical to a
// synchronous monitor fed the applied trace, which the equivalence-under-async suites
// enforce per engine under randomized barrier schedules (DESIGN.md
// "Asynchronous ingestion & the Drain barrier"; EXPERIMENTS.md E21;
// topkmon -async -queue N).
//
// # Durable checkpointing and crash-restart
//
// topk.Config.Checkpoint gives any engine a durable store
// (internal/ckpt: an atomic write-temp+fsync+rename file backend, an
// in-memory store, and a fault-injecting wrapper): the monitor persists
// CRC-sealed, generation-numbered frames at idle step boundaries —
// automatically every Checkpoint.Every applied steps, or on demand via
// Monitor.Checkpoint, which drains the async queue first — and after a
// coordinator-process crash topk.Restore rebuilds a monitor from the
// newest checkpoint that still validates; torn, corrupt and stale frames
// are rejected, never half-loaded. A checkpoint is a chain — one base
// frame, the whole state, and delta frames carrying the values observed
// since the frame before, which is all a stretch of steps that charged no
// message can have moved — so a save costs what changed; a base is cut
// again when a message was charged or the deltas would outgrow it.
// The in-process engine
// restores bit-identically (frames carry the full machine and node-bank
// state, RNG included); the networked and sharded engines re-handshake
// their peers, replay the coordinator's value mirror and force one
// FILTERRESET, so restored reports are oracle-exact from the first step
// (DESIGN.md "Durable checkpointing & crash-restart"; EXPERIMENTS.md
// E23, E25; topkmon -serve ... -checkpoint DIR survives kill-and-restart).
//
// # The value-domain boundary
//
// No input to the public topk API can panic the monitor. Keys are the
// injection value·Nodes + tiebreak, so observation magnitudes are
// bounded by topk.Monitor.MaxValue() (shrinking with Nodes); Observe,
// ObserveDelta and Oracle reject out-of-domain values with a descriptive
// error before any engine state changes, the remote node hosts surface
// the same condition as a serve-loop error instead of a crash, and
// boundary fuzz plus overflow-regression tests pin the contract on all
// three engines.
package repro
