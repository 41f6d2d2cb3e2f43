// Package runtime executes Algorithm 1 on a concurrent engine: shard
// goroutines hosting the distributed nodes plus a coordinator,
// communicating exclusively over channels. It demonstrates the distributed
// fidelity of the reproduction — nodes hold only their own state (current
// key, filter, membership flag, private RNG) and everything the
// coordinator learns about values arrives in counted messages.
//
// The coordinator's decision logic is the shared sans-I/O state machine of
// internal/coord; this package contributes only the substrate: it
// translates the machine's effects into batched shard commands, fans the
// replies back in, and hosts the node-side state (one coord.Nodes view per
// shard goroutine).
//
// # Synchrony and the control plane
//
// The paper's model is synchronous: observations happen in lockstep and an
// arbitrary protocol may run between two observations, with round
// boundaries being common knowledge. The engine realizes that assumption
// with an uncounted control plane: command delivery, round barriers and
// per-round acknowledgements are channel plumbing that carries no value
// information a real synchronized deployment would not already have.
// Counted messages — node value reports (Up) and coordinator broadcasts
// (Bcast) — are recorded exactly as in the sequential engine
// (internal/core), and the equivalence test in this package asserts that
// both engines produce bit-identical message counts and reports under the
// same seed.
//
// # Sharding
//
// Nodes are partitioned into contiguous shards, one goroutine each, and
// the coordinator exchanges one batched command/reply pair per shard per
// protocol round instead of one per node. A round therefore costs
// O(shards) channel operations rather than O(n), which is what makes the
// engine usable at large n. Batching is pure control-plane mechanics: each
// node still takes exactly the decisions it would take with a private
// channel (its RNG is consulted identically), so message counts are
// unaffected by the shard layout.
package runtime

import (
	"fmt"
	gort "runtime"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
)

// Config mirrors core.Config for the concurrent engine.
type Config struct {
	N, K           int
	Seed           uint64
	DistinctValues bool
	// Epsilon selects the ε-approximate mode, exactly as in core.Config.
	Epsilon float64
	// Shards is the number of node-hosting goroutines. 0 selects
	// min(N, GOMAXPROCS). The shard layout does not affect reports or
	// message counts, only scheduling.
	Shards int
	// Ordered selects the coordinator's ordered mode, exactly as in
	// core.Config: the runtime also tracks the ranking of the top-k
	// (AppendRanking), and the bank hosts the members' order filters.
	Ordered bool
}

type cmdKind int

const (
	cObserve      cmdKind = iota // dense observation vector
	cObserveDelta                // sparse observation: only listed ids changed
	cRound
	cWinner
	cResetBegin
	cOrderCheck  // ordered mode: report if the order filter broke
	cOrderBounds // ordered mode: install new order-filter bounds
)

// shardCmd is one batched command delivered to a shard. It applies to all
// of the shard's nodes unless target selects a single node.
type shardCmd struct {
	kind  cmdKind
	step  int64     // cObserve*/cRound: current observation step
	vals  []int64   // cObserve: the full dense observation vector
	ids   []int     // cObserveDelta: strictly increasing changed node ids
	dvals []int64   // cObserveDelta: values parallel to ids
	tag   uint8     // cRound: protocol cohort (coord.Tag* value)
	round int       // cRound
	best  order.Key // cRound: best-so-far in the sampler's comparison domain
	bound int       // cRound: population bound N of the protocol
	tgt   int       // cWinner/cOrderCheck/cOrderBounds: target node id
	isTop bool      // cWinner: winner belongs to the new top-k
	lo    order.Key // cOrderBounds lower bound
	hi    order.Key // cOrderBounds upper bound
}

// send is one counted node→coordinator message within a batched reply.
type send struct {
	id  int
	key order.Key
}

// shardReply is a shard's batched answer to one command. sends aliases the
// shard's reusable buffer: the coordinator must consume it before issuing
// the next command to that shard (which it always does — commands are
// strictly round-trip).
type shardReply struct {
	shard            int
	topViol, outViol bool
	sends            []send
}

// shard drives one coord.Nodes view — a contiguous range [lo, hi) — on
// its own goroutine, answering batched commands.
type shard struct {
	idx    int
	lo, hi int
	bank   *coord.Nodes
	cmd    chan shardCmd
	out    chan<- shardReply
	buf    []send // reusable sends buffer, aliased by replies
}

func (sh *shard) run() {
	for c := range sh.cmd {
		rp := shardReply{shard: sh.idx}
		sh.buf = sh.buf[:0]
		switch c.kind {
		case cObserve:
			for id := sh.lo; id < sh.hi; id++ {
				t, o, err := sh.bank.Observe(id, c.vals[id], c.step)
				if err != nil {
					// The public boundary (package topk) validates the value
					// domain before any engine sees a step; reaching this is
					// a caller bug in direct engine use, and the engine's
					// input contract is to panic on those.
					panic("runtime: " + err.Error())
				}
				rp.topViol = rp.topViol || t
				rp.outViol = rp.outViol || o
			}

		case cObserveDelta:
			// Only the shard's slice of the (sorted) changed ids is
			// touched; untouched nodes keep their key and cannot newly
			// violate (per-step filter invariant).
			start := sort.SearchInts(c.ids, sh.lo)
			for j := start; j < len(c.ids) && c.ids[j] < sh.hi; j++ {
				t, o, err := sh.bank.Observe(c.ids[j], c.dvals[j], c.step)
				if err != nil {
					panic("runtime: " + err.Error())
				}
				rp.topViol = rp.topViol || t
				rp.outViol = rp.outViol || o
			}

		case cResetBegin:
			sh.bank.ResetBegin()

		case cRound:
			sh.bank.Round(c.tag, c.round, c.best, c.bound, c.step, func(id int, key order.Key) {
				sh.buf = append(sh.buf, send{id: id, key: key})
			})
			rp.sends = sh.buf

		case cWinner:
			sh.bank.Winner(c.tgt, c.isTop)

		case cOrderCheck:
			if key, violated := sh.bank.OrderViolated(c.tgt); violated {
				sh.buf = append(sh.buf, send{id: c.tgt, key: key})
				rp.sends = sh.buf
			}

		case cOrderBounds:
			sh.bank.SetOrderBounds(c.tgt, c.lo, c.hi)

		default:
			panic(fmt.Sprintf("runtime: unknown command kind %d", c.kind))
		}
		sh.out <- rp
	}
}

// Runtime is the concurrent monitor. It satisfies sim.Algorithm. It is not
// safe for concurrent Observe calls (steps are globally ordered in the
// model); internal node parallelism is managed by the coordinator.
type Runtime struct {
	cfg       Config
	mach      *coord.Machine
	bank      *coord.Nodes // full-range bank; shards hold disjoint views
	shards    []*shard
	shardSize int
	in        chan shardReply
	wg        sync.WaitGroup

	replies []shardReply // reusable per-round reply table, indexed by shard
	touched []int        // reusable scratch: shard indices hit by a delta

	step   int64
	closed bool
}

// New starts the shard goroutines and returns the runtime. Callers must
// Close it to release the goroutines. As in the sequential engine, nodes
// are treated as holding the value 0 until their first observation.
func New(cfg Config) *Runtime {
	if cfg.N <= 0 {
		panic("runtime: need N > 0")
	}
	if cfg.K < 1 || cfg.K > cfg.N {
		panic("runtime: need 1 <= K <= N")
	}
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		panic("runtime: " + err.Error())
	}
	// One bank construction pays the RNG split walk; shards take disjoint
	// views of it. The stream layout matches core.New exactly; engine
	// equivalence depends on it.
	bank := coord.NewNodes(cfg.N, 0, cfg.N, cfg.Seed, cfg.DistinctValues, tol)
	if cfg.Ordered {
		bank.EnableOrderFilters(cfg.K) // before the shards take their views
	}
	return assemble(cfg, coord.New(coord.Config{N: cfg.N, K: cfg.K, Tol: tol, Ordered: cfg.Ordered}), bank)
}

// assemble wires a machine and a full-range bank into a running Runtime:
// it sizes the shard split, hands each shard goroutine its disjoint bank
// view, and starts them. Both New and Restore funnel through it.
func assemble(cfg Config, mach *coord.Machine, bank *coord.Nodes) *Runtime {
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = gort.GOMAXPROCS(0)
	}
	if nshards > cfg.N {
		nshards = cfg.N
	}
	shardSize := (cfg.N + nshards - 1) / nshards
	nshards = (cfg.N + shardSize - 1) / shardSize

	rt := &Runtime{
		cfg:       cfg,
		mach:      mach,
		bank:      bank,
		shardSize: shardSize,
		in:        make(chan shardReply, nshards),
		replies:   make([]shardReply, nshards),
	}
	for s := 0; s < nshards; s++ {
		lo := s * shardSize
		hi := lo + shardSize
		if hi > cfg.N {
			hi = cfg.N
		}
		sh := &shard{
			idx:  s,
			lo:   lo,
			hi:   hi,
			bank: bank.Sub(lo, hi),
			cmd:  make(chan shardCmd, 1),
			out:  rt.in,
		}
		rt.shards = append(rt.shards, sh)
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			sh.run()
		}()
	}
	return rt
}

// Close shuts down all shard goroutines. Idempotent.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, sh := range rt.shards {
		close(sh.cmd)
	}
	rt.wg.Wait()
}

// Err returns nil: the in-process shards cannot fail independently of
// the coordinator (the link-backed engines report abandoned recovery
// here).
func (rt *Runtime) Err() error { return nil }

// Counts returns the total message counts charged so far.
func (rt *Runtime) Counts() comm.Counts { return rt.mach.Counts() }

// Bytes returns the total encoded size of the charged messages (the
// sim.ByteCounter accessor).
func (rt *Runtime) Bytes() comm.Bytes { return rt.mach.Bytes() }

// Ledger exposes the per-phase breakdown.
func (rt *Runtime) Ledger() *comm.Ledger { return rt.mach.Ledger() }

// Stats returns execution counters (maintained by the shared coordinator
// core, identical across engines for the same seed).
func (rt *Runtime) Stats() coord.Stats { return rt.mach.Stats() }

// Top returns the current top-k ids ascending. The returned slice is a
// read-only view owned by the runtime, invalidated by the next reset, and
// mutating it corrupts the engine; use AppendTop to copy.
func (rt *Runtime) Top() []int { return rt.mach.Top() }

// AppendTop appends the current top-k ids (ascending) to dst and returns
// the extended slice. The appended values are copies owned by the caller:
// they stay valid across later steps, and mutating them never affects the
// engine.
func (rt *Runtime) AppendTop(dst []int) []int { return rt.mach.AppendTop(dst) }

// AppendRanking appends the top-k ids by rank, largest value first, to dst
// and returns the extended slice. Only a runtime in the ordered mode tracks
// the ranking; any other appends nothing.
func (rt *Runtime) AppendRanking(dst []int) []int { return rt.mach.AppendRanking(dst) }

// broadcast sends the command to every shard and collects one batched
// reply per shard into the reusable reply table. The fan-out/fan-in is
// control plane; only explicitly recorded events cost messages.
func (rt *Runtime) broadcast(c shardCmd) []shardReply {
	for _, sh := range rt.shards {
		sh.cmd <- c
	}
	for range rt.shards {
		rp := <-rt.in
		rt.replies[rp.shard] = rp
	}
	return rt.replies
}

// unicast routes a single-node command to the shard owning that node and
// awaits its reply. Like broadcast, the plumbing is control plane.
func (rt *Runtime) unicast(id int, c shardCmd) shardReply {
	c.tgt = id
	rt.shards[id/rt.shardSize].cmd <- c
	return <-rt.in
}

// Observe processes one dense time step and returns the reported top-k ids
// ascending (a read-only view, as with Top). It panics after Close.
func (rt *Runtime) Observe(vals []int64) []int {
	if rt.closed {
		panic("runtime: Observe after Close")
	}
	if len(vals) != rt.cfg.N {
		panic(fmt.Sprintf("runtime: observed %d values for %d nodes", len(vals), rt.cfg.N))
	}
	rt.step = rt.mach.BeginStep()
	anyTop, anyOut := false, false
	for _, sh := range rt.shards {
		sh.cmd <- shardCmd{kind: cObserve, vals: vals, step: rt.step}
	}
	for range rt.shards {
		rp := <-rt.in
		anyTop = anyTop || rp.topViol
		anyOut = anyOut || rp.outViol
	}
	return rt.finishStep(anyTop, anyOut)
}

// ObserveDelta processes one sparse time step: vals[j] is node ids[j]'s
// new value and every other node repeats its previous value. ids must be
// strictly increasing. Only shards owning a touched node exchange
// observation commands, so a violation-free sparse step costs channel
// traffic proportional to the number of touched shards. Semantics match
// core.Monitor.ObserveDelta exactly.
func (rt *Runtime) ObserveDelta(ids []int, vals []int64) []int {
	if rt.closed {
		panic("runtime: ObserveDelta after Close")
	}
	if len(ids) != len(vals) {
		panic(fmt.Sprintf("runtime: delta has %d ids but %d values", len(ids), len(vals)))
	}
	prev := -1
	rt.touched = rt.touched[:0]
	for _, id := range ids {
		if id <= prev || id >= rt.cfg.N {
			panic(fmt.Sprintf("runtime: delta ids must be strictly increasing in [0, %d), got %d after %d", rt.cfg.N, id, prev))
		}
		prev = id
		if si := id / rt.shardSize; len(rt.touched) == 0 || rt.touched[len(rt.touched)-1] != si {
			rt.touched = append(rt.touched, si)
		}
	}
	rt.step = rt.mach.BeginStep()
	c := shardCmd{kind: cObserveDelta, ids: ids, dvals: vals, step: rt.step}
	for _, si := range rt.touched {
		rt.shards[si].cmd <- c
	}
	anyTop, anyOut := false, false
	for range rt.touched {
		rp := <-rt.in
		anyTop = anyTop || rp.topViol
		anyOut = anyOut || rp.outViol
	}
	return rt.finishStep(anyTop, anyOut)
}

// finishStep drives the coordinator machine through the rest of the step,
// executing its effects over the shard channels.
func (rt *Runtime) finishStep(anyTopViol, anyOutViol bool) []int {
	eff := rt.mach.FinishStep(anyTopViol, anyOutViol)
	for eff.Kind != coord.EffDone {
		switch eff.Kind {
		case coord.EffExec:
			res := rt.execProtocol(eff)
			eff = rt.mach.ExecDone(res.OK, res.ID, res.Key)
		case coord.EffResetBegin:
			rt.broadcast(shardCmd{kind: cResetBegin})
			eff = rt.mach.Ack()
		case coord.EffWinner:
			rt.unicast(eff.Target, shardCmd{kind: cWinner, isTop: eff.IsTop})
			eff = rt.mach.Ack()
		case coord.EffMidpoint:
			// A filter install is one store on the full-range bank, whose
			// bounds every shard view shares: the shards are parked on
			// their command channels, their last replies happen-before
			// this write and their next commands happen-after it (the
			// edge Snapshot relies on), so no command is fanned out.
			rt.bank.Midpoint(eff.Mid, eff.Full)
			eff = rt.mach.Ack()
		case coord.EffBounds:
			rt.bank.ApplyBounds(eff.Lo, eff.Hi)
			eff = rt.mach.Ack()
		case coord.EffOrderCheck:
			// The member reports its key only if its order filter broke.
			var key order.Key
			sends := rt.unicast(eff.Target, shardCmd{kind: cOrderCheck}).sends
			if len(sends) > 0 {
				key = sends[0].key
			}
			eff = rt.mach.OrderDone(key, len(sends) > 0)
		case coord.EffOrderBounds:
			rt.unicast(eff.Target, shardCmd{kind: cOrderBounds, lo: eff.Lo, hi: eff.Hi})
			eff = rt.mach.Ack()
		default:
			panic(fmt.Sprintf("runtime: unknown coordinator effect %d", eff.Kind))
		}
	}
	return rt.mach.Top()
}

// execProtocol runs one Algorithm 2 execution over the effect's cohort:
// one batched command/reply pair per shard per round, with replies
// consumed in ascending shard (hence node id) order.
func (rt *Runtime) execProtocol(eff coord.Effect) protocol.Result {
	ex := protocol.NewExec(eff.Bound, coord.MinimumTag(eff.Tag), rt.mach.Recorder(eff.Phase), nil, rt.step)
	for ex.More() {
		replies := rt.broadcast(shardCmd{
			kind: cRound, tag: eff.Tag, round: ex.Round(),
			best: ex.Best(), bound: eff.Bound, step: rt.step,
		})
		for i := range replies {
			for _, sd := range replies[i].sends {
				ex.Bid(sd.id, sd.key)
			}
		}
		ex.EndRound()
	}
	return ex.Result()
}
