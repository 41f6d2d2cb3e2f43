// Package runtime is the concurrent host of core.Monitor: a pool of shard
// goroutines, each driving a disjoint view of the monitor's node bank, that
// runs the monitor's range sweeps — the step's observation batch and a
// protocol round — in parallel. New and Restore return the
// monitor on that host: the concurrent engine. It demonstrates the
// distributed fidelity of the reproduction — a shard consults only its own
// nodes' state (current key, filter, membership bit) and
// everything the coordinator learns about values arrives in counted
// messages.
//
// The package owns the pool and nothing else. The machine, the bank, the
// effect loop, input validation, the accessors and checkpoints are
// core.Monitor's, the same code the sequential engine runs, so reports,
// ledgers and checkpoint frames cannot depend on the host; only the engine
// fingerprint (wire.EngineConc) tells a concurrent checkpoint from a
// sequential one.
//
// # Synchrony and the control plane
//
// The paper's model is synchronous: observations happen in lockstep and an
// arbitrary protocol may run between two observations, with round
// boundaries being common knowledge. The pool realizes that assumption
// with an uncounted control plane: command delivery, round barriers and
// per-round acknowledgements are channel plumbing that carries no value
// information a real synchronized deployment would not already have.
// Counted messages — node value reports (Up) and coordinator broadcasts
// (Bcast) — are recorded by the monitor's one protocol loop as the
// replies are replayed into it in ascending shard (hence node id) order.
//
// # Who may touch the bank, and when
//
// Commands are strictly round-trip: the coordinator sends a command to some
// shards and receives exactly their replies before it does anything else.
// A shard touches bank cells only between receiving a command and sending
// its reply, and is otherwise parked on its command channel. So the reply
// receive orders every shard write before whatever the coordinator does
// next, and the next command send orders that before every later shard
// access: between calls into the pool the coordinator goroutine owns the
// whole bank. That is core.Host's contract, and it is why the effects that
// touch one node (Winner, an order-filter check or install), one shared
// cell (a filter install) or the membership bitset (ResetBegin) have no
// shard command, and why Snapshot and the monitor's read views need none
// either — the monitor executes them on the full-range bank, whose arrays
// the shards' views alias. A shard reads the membership bitset and never
// writes it, so views whose ranges split one of its words share that word
// race-free.
//
// # Sharding
//
// Nodes are partitioned into contiguous shards, one goroutine each, and
// the coordinator exchanges one batched command/reply pair per shard per
// sweep instead of one per node. A round therefore costs O(shards) channel
// operations rather than O(n), and a sparse step only involves the shards
// owning a touched node. Batching is pure control-plane mechanics: each
// node still takes exactly the decisions it would take with a private
// channel (its coins are the same keyed function), so message counts are
// unaffected by the shard layout.
package runtime

import (
	"errors"
	gort "runtime"
	"sort"
	"sync"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/wire"
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
	// core.Config.
	Ordered bool
}

func (c Config) core() core.Config {
	return core.Config{N: c.N, K: c.K, Seed: c.Seed, DistinctValues: c.DistinctValues, Epsilon: c.Epsilon, Ordered: c.Ordered}
}

// New returns a monitor on a freshly started shard pool. Callers must
// Close it to release the goroutines.
func New(cfg Config) *core.Monitor { return core.NewOn(cfg.core(), Sharded(cfg.Shards)) }

// Restore is core.Restore onto a shard pool sized for this process; the
// shard count need not be the one the frames were taken under.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*core.Monitor, error) {
	return core.RestoreOn(cfg.core(), Sharded(cfg.Shards), machFrame, nodesFrame)
}

type cmdKind int

const (
	cObserve cmdKind = iota
	cRound
)

// shardCmd is one batched command delivered to a shard; it applies to all
// of the shard's nodes (cObserve: to those of them the batch lists).
type shardCmd struct {
	kind  cmdKind
	step  int64     // cObserve/cRound: current observation step
	ids   []int     // cObserve: core.Host.Observe's batch, whole
	vals  []int64   // cObserve
	tag   uint8     // cRound: protocol cohort (coord.Tag* value)
	round int       // cRound
	best  order.Key // cRound: best-so-far in the sampler's comparison domain
	bound int       // cRound: population bound N of the protocol
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
	err              error // cObserve: the bank rejected a value
	sends            []send
}

// shard drives one coord.Nodes view — a contiguous range of the monitor's
// bank — on its own goroutine, answering batched commands.
type shard struct {
	idx  int
	bank *coord.Nodes
	cmd  chan shardCmd
	out  chan<- shardReply
	buf  []send // reusable sends buffer, aliased by replies
}

func (sh *shard) run() {
	for c := range sh.cmd {
		rp := shardReply{shard: sh.idx}
		switch c.kind {
		case cObserve:
			// A rejected value travels back in the reply: the step panics
			// on the caller's goroutine, where it can be recovered, not here.
			rp.topViol, rp.outViol, rp.err = core.ObserveRange(sh.bank, c.ids, c.vals, c.step)
		case cRound:
			// Buffer and replay: the bids reach the execution on the
			// coordinator goroutine, in shard order.
			sh.buf = sh.buf[:0]
			sh.bank.Round(c.tag, c.round, c.best, c.bound, c.step, func(id int, key order.Key) {
				sh.buf = append(sh.buf, send{id: id, key: key})
			})
			rp.sends = sh.buf
		}
		sh.out <- rp
	}
}

// pool is the concurrent core.Host: shard goroutines over disjoint views
// of one bank.
type pool struct {
	shards    []*shard
	shardSize int
	in        chan shardReply
	wg        sync.WaitGroup

	replies []shardReply // reusable per-sweep reply table, indexed by shard
	all     []int        // every shard index, ascending
	touched []int        // reusable scratch: shard indices hit by a delta
	closed  bool
}

// Sharded returns the constructor of a shard pool of the given size
// (0: min(n, GOMAXPROCS)) for core.NewOn and core.RestoreOn: it splits the
// bank into that many contiguous views and starts a goroutine on each.
func Sharded(shards int) func(bank *coord.Nodes) core.Host {
	return func(bank *coord.Nodes) core.Host {
		n, nshards := bank.Len(), shards
		if nshards <= 0 {
			nshards = gort.GOMAXPROCS(0)
		}
		nshards = min(nshards, n)
		shardSize := (n + nshards - 1) / nshards
		nshards = (n + shardSize - 1) / shardSize

		p := &pool{
			shardSize: shardSize,
			in:        make(chan shardReply, nshards),
			replies:   make([]shardReply, nshards),
		}
		for s := 0; s < nshards; s++ {
			sh := &shard{
				idx:  s,
				bank: bank.Sub(s*shardSize, min((s+1)*shardSize, n)),
				cmd:  make(chan shardCmd, 1),
				out:  p.in,
			}
			p.shards, p.all = append(p.shards, sh), append(p.all, s)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				sh.run()
			}()
		}
		return p
	}
}

// Engine is the fingerprint of a concurrent engine's checkpoints.
func (p *pool) Engine() uint8 { return wire.EngineConc }

// Close shuts down all shard goroutines. Idempotent.
func (p *pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, sh := range p.shards {
		close(sh.cmd)
	}
	p.wg.Wait()
}

// sweep sends the command to the listed shards and collects one batched
// reply from each into the reusable reply table, which it returns whole
// (entries of shards not asked are stale). The fan-out/fan-in is control
// plane; only explicitly recorded events cost messages.
func (p *pool) sweep(c shardCmd, to []int) []shardReply {
	for _, si := range to {
		p.shards[si].cmd <- c
	}
	for range to {
		rp := <-p.in
		p.replies[rp.shard] = rp
	}
	return p.replies
}

// Observe fans one step's batch out. A dense batch goes to every shard; of
// a sparse one (ids strictly increasing) only the shards owning a touched
// node exchange a command, so a violation-free sparse step costs channel
// traffic proportional to the number of touched shards.
func (p *pool) Observe(ids []int, vals []int64, step int64) (anyTop, anyOut bool, err error) {
	if p.closed {
		return false, false, errors.New("runtime: observation after Close")
	}
	to := p.all
	if ids != nil {
		to = p.touched[:0]
		for j := 0; j < len(ids); {
			si := ids[j] / p.shardSize
			to = append(to, si)
			j += sort.SearchInts(ids[j:], (si+1)*p.shardSize)
		}
		p.touched = to
	}
	replies := p.sweep(shardCmd{kind: cObserve, ids: ids, vals: vals, step: step}, to)
	for _, si := range to {
		rp := replies[si]
		anyTop, anyOut = anyTop || rp.topViol, anyOut || rp.outViol
		if err == nil {
			err = rp.err // the lowest rejected node's, as on the inline host
		}
	}
	return anyTop, anyOut, err
}

// Round runs one protocol round on every shard and replays the buffered
// sends in ascending shard, hence node id, order.
func (p *pool) Round(tag uint8, r int, best order.Key, bound int, step int64, bid func(id int, key order.Key)) {
	for _, rp := range p.sweep(shardCmd{kind: cRound, tag: tag, round: r, best: best, bound: bound, step: step}, p.all) {
		for _, sd := range rp.sends {
			bid(sd.id, sd.key)
		}
	}
}
