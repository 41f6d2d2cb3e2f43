package repro

// Micro-benchmarks of the core data paths, with message-count metrics. The
// experiments (the repository's "tables and figures"; see DESIGN.md §4) run
// through cmd/experiments, and internal/bench's
// TestAllExperimentsRunAtQuickScale runs every one of them at quick scale.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/peerlinks"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/topk"
)

// BenchmarkMaximumProtocol measures one Algorithm 2 execution and reports
// the average number of node messages next to the wall-clock cost.
func BenchmarkMaximumProtocol(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(bench.F("n=%d", n), func(b *testing.B) {
			root := rng.New(uint64(n), 0xbe)
			perm := root.Perm(n)
			parts := make([]protocol.Participant, n)
			for i := range parts {
				parts[i] = protocol.Participant{ID: i, Key: order.Key(perm[i] + 1), RNG: root.Split(uint64(i))}
			}
			var c comm.Counter
			var s protocol.Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Maximum(parts, n, &c, nil, 0)
			}
			b.ReportMetric(float64(c.Get(comm.Up))/float64(b.N), "up-msgs/op")
		})
	}
}

// BenchmarkMonitorStep measures one Observe call of the sequential engine
// on a calm workload (mostly the violation-free fast path).
func BenchmarkMonitorStep(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		b.Run(bench.F("n=%d", n), func(b *testing.B) {
			m := core.New(core.Config{N: n, K: 4, Seed: 1})
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Seed: 2})
			vals := make([]int64, n)
			src.Step(vals)
			m.Observe(vals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Step(vals)
				m.Observe(vals)
			}
			b.ReportMetric(float64(m.Counts().Total())/float64(b.N), "msgs/step")
		})
	}
}

// BenchmarkLeafDenseObserve measures what a quiet dense step costs a host:
// one netrun leaf behind a pipe, one Observe frame of 2¹⁶ changes in and
// the violation-flag reply out — pipe hand-off, the frame's varints read
// where they lie, each added to its node's value, and the bank's range
// kernel, no decoded column in between. The frames are encoded once, off
// the clock: one walk step there and back, so the values stay put; the
// leaf must allocate nothing.
func BenchmarkLeafDenseObserve(b *testing.B) {
	const n = 1 << 16
	link := fanout.Loopback(fanout.Serve)
	defer link.Close()
	exchange := func(frame []byte) {
		if err := link.Send(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := link.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	exchange(wire.Assign{Lo: 0, Hi: n, N: n, K: 4, Seed: 1}.Append(nil))
	vals, next := make([]int64, n), make([]int64, n)
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 40, MaxStep: 8, Seed: 2})
	src.Step(vals)
	copy(next, vals)
	src.Step(next)
	exchange(wire.Observe{Step: 1, Vals: vals}.Append(nil)) // against the bank's zeros
	frames := [2][]byte{
		wire.Observe{Step: 1, Vals: next, Prev: vals}.Append(nil),
		wire.Observe{Step: 1, Vals: vals, Prev: next}.Append(nil),
	}
	exchange(frames[0])
	exchange(frames[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange(frames[i&1])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
}

// BenchmarkMonitorDelta compares sparse and dense ingestion of the same
// workload — a random walk where 1% of n nodes move per step — on the
// sequential engine. The delta path is the headline: O(#changed) work and
// 0 allocs/op on violation-free steps. The delta-wide row is the quiet path
// of benchmark/'s seq-sparse-quiet as a unit benchmark: n = 2²⁰, 4096
// changes a step, values up to 2⁴⁰, which the bank keeps in 6-byte cells.
func BenchmarkMonitorDelta(b *testing.B) {
	const n = 2048
	const changed = n / 100
	newSrc := func() *stream.SparseWalk {
		return stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Changed: changed, Seed: 9,
		})
	}
	b.Run("delta", func(b *testing.B) {
		m, src := core.New(core.Config{N: n, K: 4, Seed: 10}), newSrc()
		ids, vals := make([]int, n), make([]int64, n)
		c := src.StepDelta(ids, vals)
		m.ObserveDelta(ids[:c], vals[:c])
		benchDelta(b, m, src, ids, vals)
	})
	b.Run("delta-wide", func(b *testing.B) {
		const n = 1 << 20
		m := core.New(core.Config{N: n, K: 16, Seed: 10})
		src := stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Lo: 0, Hi: 1 << 40, MaxStep: 64, Changed: 4096, Seed: 9,
		})
		ids, vals := make([]int, n), make([]int64, n)
		src.Step(vals)
		m.Observe(vals) // every value set, the time-0 FILTERRESET off the clock
		benchDelta(b, m, src, ids, vals)
	})
	b.Run("dense", func(b *testing.B) {
		m := core.New(core.Config{N: n, K: 4, Seed: 10})
		src := newSrc()
		vals := make([]int64, n)
		src.Step(vals)
		m.Observe(vals)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Step(vals)
			m.Observe(vals)
		}
		b.ReportMetric(float64(m.Counts().Total())/float64(b.N), "msgs/step")
	})
}

// benchDelta times m's ObserveDelta on src's steps, into ids and vals.
func benchDelta(b *testing.B, m *core.Monitor, src *stream.SparseWalk, ids []int, vals []int64) {
	updates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := src.StepDelta(ids, vals)
		m.ObserveDelta(ids[:c], vals[:c])
		updates += c
	}
	b.ReportMetric(float64(m.Counts().Total())/float64(b.N), "msgs/step")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
}

// BenchmarkMonitorStepHot measures Observe under constant violations (IID
// redraw workload): the protocol-heavy slow path.
func BenchmarkMonitorStepHot(b *testing.B) {
	const n = 256
	m := core.New(core.Config{N: n, K: 4, Seed: 3})
	src := stream.NewIID(stream.IIDConfig{N: n, Seed: 4, Dist: stream.Uniform, Lo: 0, Hi: 1 << 24})
	vals := make([]int64, n)
	src.Step(vals)
	m.Observe(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Step(vals)
		m.Observe(vals)
	}
	b.ReportMetric(float64(m.Counts().Total())/float64(b.N), "msgs/step")
}

// BenchmarkFilterReset measures the first Observe of the sequential engine
// — the time-0 FILTERRESET, one execution for the k+1 largest keys over all
// n nodes — which is what a monitor's set-up time is made of at 10⁶ nodes.
// Construction and input generation are off the clock.
func BenchmarkFilterReset(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(bench.F("n=%d", n), func(b *testing.B) {
			src := stream.NewIID(stream.IIDConfig{N: n, Seed: 11, Dist: stream.Uniform, Lo: 0, Hi: 1 << 40})
			vals := make([]int64, n)
			src.Step(vals)
			var msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := core.New(core.Config{N: n, K: 16, Seed: uint64(i) + 1})
				b.StartTimer()
				m.Observe(vals)
				msgs += m.Counts().Total()
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/reset")
		})
	}
}

// BenchmarkFilterInstall measures one filter install — the midpoint (or
// band) broadcast that closes every violation step and every reset — on
// the two structures that hold a population's filters: the sequential
// engine's filter.Set and a host's coord.Nodes bank. Both store the
// broadcast's bounds and derive each node's interval from its membership
// bit, so the cost is flat in n and nothing is allocated.
func BenchmarkFilterInstall(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		top := make([]int, 16)
		for i := range top {
			top[i] = i * (n / 16)
		}
		b.Run(bench.F("set/n=%d", n), func(b *testing.B) {
			fs := filter.NewSet(n, len(top))
			fs.SetMembership(top)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.AssignBand(order.Key(i), order.Key(i+1))
			}
		})
		b.Run(bench.F("bank/n=%d", n), func(b *testing.B) {
			bank := coord.NewNodes(n, 0, n, 1, false, order.Tol{})
			for _, id := range top {
				bank.Winner(id, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.Midpoint(order.Key(i), false)
			}
		})
	}
}

// BenchmarkRuntimeStep measures one step of the in-process monitor on
// internal/runtime's host (runtime.Sharded) next to the inline host
// (core.New) on the same trace — k = 16, a random walk, the first dense
// call and its time-0 reset untimed — over n ∈ {2¹⁴, 2¹⁶, 2¹⁸, 2²⁰} and a
// step's batch of 8, 64, 512 or 4096 changed nodes (ObserveDelta, a sparse
// walk) or every node (dense: Observe). The grid is where the host's size
// threshold (internal/runtime's minViewNodes) is read from, and why the
// monitor sweeps dense steps only: run it as alternating pairs — the test
// binary once per pair, -count=1, so each row's two engines run back to
// back — and take the threshold as the smallest size at which the pool wins
// 9 of 10 (EXPERIMENTS.md "one in-process engine").
func BenchmarkRuntimeStep(b *testing.B) {
	engines := []struct {
		name string
		mk   func(cfg core.Config) *core.Monitor
	}{
		{"seq", core.New},
		{"sharded", func(cfg core.Config) *core.Monitor { return core.NewOn(cfg, runtime.Sharded) }},
	}
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		for _, batch := range []int{8, 64, 512, 4096, 0} {
			label := bench.F("%d", batch)
			if batch == 0 {
				label = "dense"
			}
			for _, eng := range engines {
				b.Run(bench.F("n=%d/batch=%s/%s", n, label, eng.name), func(b *testing.B) {
					m := eng.mk(core.Config{N: n, K: 16, Seed: 5})
					defer m.Close()
					vals := make([]int64, n)
					if batch == 0 {
						src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Seed: 6})
						src.Step(vals)
						m.Observe(vals)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer() // a dense step of the walk costs as much as the monitor's
							src.Step(vals)
							b.StartTimer()
							m.Observe(vals)
						}
						return
					}
					// The sparse trace is generated ahead and cycled: its
					// generator would cost several times the step it feeds.
					src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Changed: batch, Seed: 6})
					src.Step(vals)
					m.Observe(vals)
					ids := make([]int, n)
					var steps [64]struct {
						ids  []int
						vals []int64
					}
					for s := range steps {
						c := src.StepDelta(ids, vals)
						steps[s].ids, steps[s].vals = append([]int(nil), ids[:c]...), append([]int64(nil), vals[:c]...)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s := &steps[i%len(steps)]
						m.ObserveDelta(s.ids, s.vals)
					}
				})
			}
		}
	}
}

// BenchmarkShardOverhead measures the multi-coordinator engine across
// shard counts S and node counts n on a random-walk workload, reporting
// the coordination cost next to the wall clock: model messages per step
// (the algorithm ledger, which grows with S because every shard pays for
// the executions it runs), root↔shard coordination frames and bytes per
// step (the overhead ledger), and the local executions one FILTERRESET
// runs on the shards, counted where the requests arrive — S, one sweep a
// shard, the count shardrun's TestResetRunsSPlusKExecutions pins (S + k
// while a reset was a k-merge of k+1 extractions, (k+1)·S before that).
// This is the experiment seeding the overhead-vs-S
// trajectory (EXPERIMENTS.md E18); CI only smoke-runs it once
// (-benchtime=1x) — compared numbers come from ./benchmark.
func BenchmarkShardOverhead(b *testing.B) {
	const steps = 200
	for _, n := range []int{256, 1024} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(bench.F("n=%d/S=%d", n, shards), func(b *testing.B) {
				vals := make([]int64, n)
				var msgs, frames, obytes, resets int64
				var execs atomic.Int64 // TagReset executions requested of the shards
				for i := 0; i < b.N; i++ {
					execs.Store(0)
					links := fanout.Loopbacks(shards, func(l transport.Link) error {
						return fanout.Serve(resetExecCounter{l, &execs})
					})
					eng, err := fanout.New(fanout.Config{N: n, K: 8, Seed: 7}, links)
					if err != nil {
						b.Fatal(err)
					}
					src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 1 << 12, Seed: 11})
					for s := 0; s < steps; s++ {
						src.Step(vals)
						eng.Observe(vals)
					}
					msgs = eng.Counts().Total()
					frames = eng.Overhead().Total()
					obytes = eng.OverheadBytes().Total()
					resets = eng.Stats().Resets
					eng.Close()
				}
				b.ReportMetric(float64(msgs)/steps, "msgs/step")
				b.ReportMetric(float64(frames)/steps, "coord-frames/step")
				b.ReportMetric(float64(obytes)/steps, "coord-B/step")
				b.ReportMetric(float64(execs.Load())/float64(resets), "leaf-execs/reset")
			})
		}
	}
}

// resetExecCounter is a shard's end of its link, counting the TagReset
// executions the root requests over it.
type resetExecCounter struct {
	transport.Link
	execs *atomic.Int64
}

func (l resetExecCounter) Recv() ([]byte, error) {
	frame, err := l.Link.Recv()
	if err == nil {
		wiretest.Rounds(frame, func(m wire.Round) {
			if m.Tag == coord.TagReset {
				l.execs.Add(1)
			}
		})
	}
	return frame, err
}

// tcpNetEngine builds a networked engine over real loopback TCP links
// with in-process Serve goroutines on the dialing side, mirroring the
// topkmon -serve/-join topology. The cleanup closes the engine, the
// listener and the serve loops.
func tcpNetEngine(b *testing.B, cfg fanout.Config, peers int) *fanout.Engine {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		b.Skipf("cannot listen on loopback: %v", err)
	}
	for i := 0; i < peers; i++ {
		go func() {
			link, err := transport.Dial(ctx, ln.Addr())
			if err != nil {
				return
			}
			_ = fanout.Serve(link)
		}()
	}
	links, err := ln.AcceptN(peers)
	if err != nil {
		cancel()
		b.Fatal(err)
	}
	eng, err := fanout.New(cfg, links)
	if err != nil {
		cancel()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		eng.Close()
		ln.Close()
		cancel()
	})
	return eng
}

// BenchmarkNetStepLatency measures one observation step of the networked
// engine across the peer count, over in-process pipes AND real loopback
// TCP. The workload is an IID redraw, so nearly every step runs protocol
// executions — the regime in which the engine's fanned-out gather and its
// Winner/ResetBegin/Midpoint coalescing pay: step latency should follow
// the slowest peer rather than the peer count (msgs/step is reported to
// prove runs comparable, rounds/reset — a FILTERRESET's broadcast rounds,
// each one round trip to every peer — to show what a reset step waits
// for: ceil(log2 n) + 1, where k+1 executions took k+1 times that). This
// seeds the wall-clock trajectory of
// EXPERIMENTS.md E20; CI only smoke-runs it once (-benchtime=1x) —
// compared numbers come from ./benchmark.
func BenchmarkNetStepLatency(b *testing.B) {
	const n, k = 256, 8
	for _, tr := range []string{"pipe", "tcp"} {
		for _, peers := range []int{1, 4, 8, 16} {
			b.Run(bench.F("%s/peers=%d", tr, peers), func(b *testing.B) {
				cfg := fanout.Config{N: n, K: k, Seed: 7}
				var eng *fanout.Engine
				if tr == "tcp" {
					eng = tcpNetEngine(b, cfg, peers)
				} else {
					var err error
					eng, err = fanout.New(cfg, fanout.Loopbacks(peers, fanout.Serve))
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(eng.Close)
				}
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 11, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				src.Step(vals)
				eng.Observe(vals) // init reset outside the timer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Step(vals)
					eng.Observe(vals)
				}
				b.StopTimer()
				if err := eng.Err(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(eng.Counts().Total())/float64(b.N+1), "msgs/step")
				// The reset phase's broadcasts are its rounds and one install each.
				resets := eng.Stats().Resets
				b.ReportMetric(float64(eng.Ledger().PhaseCounts(comm.PhaseReset).Bcast-resets)/float64(resets), "rounds/reset")
			})
		}
	}
}

// BenchmarkShardParallel measures the step latency of the sharded engine
// against the shard count on a protocol-heavy workload (IID redraws, so
// nearly every step delegates executions): the S local protocols of one
// delegated execution run concurrently, so a fixed node population speeds
// up as S grows. Reported msgs/step grows with S (each shard pays its own
// rounds) — that trade-off is E18's; this benchmark tracks the wall-clock
// side for EXPERIMENTS.md E20.
func BenchmarkShardParallel(b *testing.B) {
	const n, k = 1024, 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(bench.F("S=%d", shards), func(b *testing.B) {
			eng, err := fanout.NewLoopbackTree(fanout.Config{N: n, K: k, Seed: 7}, shards, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(eng.Close)
			src := stream.NewIID(stream.IIDConfig{N: n, Seed: 11, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
			vals := make([]int64, n)
			src.Step(vals)
			eng.Observe(vals) // init reset outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Step(vals)
				eng.Observe(vals)
			}
			b.StopTimer()
			if err := eng.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(eng.Counts().Total())/float64(b.N+1), "msgs/step")
		})
	}
}

// BenchmarkTreeFanIn measures the hierarchical coordinator tree against
// the flat star serving the same leaf population: for each branch factor
// b and depth d the tree run drives a b^d-leaf tree (root holds exactly
// b links) and the flat run drives S=b^d shards hanging directly off the
// root. Both execute the identical protocol trajectory — same reports,
// same algorithm ledger — so the comparison isolates coordination
// topology: root-links is the root's fan-in, root-frames/step and
// root-B/step are the frames and bytes the root itself moved (the tree's
// interior levels pay the rest; see Engine.TreeStats), and ns/op is the
// step latency including every tree level's round trip. At equal total ε
// the tree's root sees strictly less traffic than the flat root — depth
// buys fan-in at the price of per-step latency. This seeds EXPERIMENTS.md
// E22; CI only smoke-runs it once (-benchtime=1x).
func BenchmarkTreeFanIn(b *testing.B) {
	const n, k, steps = 512, 8, 150
	const eps = 0.05
	for _, branch := range []int{2, 4, 8} {
		for _, depth := range []int{1, 2, 3} {
			leaves, err := fanout.Tree{Branch: branch, Depth: depth}.Leaves()
			if err != nil || leaves > n {
				continue
			}
			run := func(name string, mk func() (*fanout.Engine, error), links int) {
				b.Run(bench.F("b=%d/d=%d/%s", branch, depth, name), func(b *testing.B) {
					vals := make([]int64, n)
					var frames, obytes int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						eng, err := mk()
						if err != nil {
							b.Fatal(err)
						}
						src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 13, Seed: 11})
						b.StartTimer()
						for s := 0; s < steps; s++ {
							src.Step(vals)
							eng.Observe(vals)
						}
						b.StopTimer()
						if err := eng.Err(); err != nil {
							b.Fatal(err)
						}
						frames = eng.Overhead().Total()
						obytes = eng.OverheadBytes().Total()
						eng.Close()
						b.StartTimer()
					}
					b.ReportMetric(float64(links), "root-links")
					b.ReportMetric(float64(frames)/steps, "root-frames/step")
					b.ReportMetric(float64(obytes)/steps, "root-B/step")
				})
			}
			cfg := fanout.Config{N: n, K: k, Seed: 7, Epsilon: eps}
			run("tree", func() (*fanout.Engine, error) {
				return fanout.NewLoopbackTree(cfg, branch, depth)
			}, branch)
			run("flat", func() (*fanout.Engine, error) {
				return fanout.NewLoopbackTree(cfg, leaves, 1)
			}, leaves)
		}
	}
}

// BenchmarkApproxComm sweeps the tolerance of the ε-approximate mode on
// one drifting workload and reports the communication next to the wall
// clock: model messages and charged bytes per step, and the violation
// steps the (1±ε) bands absorbed. ε=0 is the exact baseline on the same
// trace. This is the benchmark-grade mirror of EXPERIMENTS.md E19
// (`cmd/experiments -only E19`); CI only smoke-runs it once
// (-benchtime=1x).
func BenchmarkApproxComm(b *testing.B) {
	const steps = 400
	const n, k = 1024, 8
	for _, eps := range []float64{0, 0.01, 0.05, 0.1} {
		b.Run(bench.F("eps=%.2f", eps), func(b *testing.B) {
			vals := make([]int64, n)
			var msgs, bytes, viol int64
			for i := 0; i < b.N; i++ {
				m := core.New(core.Config{N: n, K: k, Seed: 7, Epsilon: eps})
				src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 13, Seed: 11})
				for s := 0; s < steps; s++ {
					src.Step(vals)
					m.Observe(vals)
				}
				msgs = m.Counts().Total()
				bytes = m.Bytes().Total()
				viol = m.Stats().ViolationSteps
			}
			b.ReportMetric(float64(msgs)/steps, "msgs/step")
			b.ReportMetric(float64(bytes)/steps, "B/step")
			b.ReportMetric(float64(viol)/steps, "viol-steps/step")
		})
	}
}

// BenchmarkRecovery measures what one peer failure costs the networked
// engine across cohort sizes: the wall clock from the kill to the first
// re-converged report, the observation calls it took (detection plus the
// recovering step), and the transport frames the reassignment handshake,
// value replay and forced reset moved. The dead peer's range is merged
// into a survivor (no Redial), so the figure tracks how reassignment
// scales with the number of surviving peers. CI only smoke-runs it once
// (-benchtime=1x).
func BenchmarkRecovery(b *testing.B) {
	const n, k = 256, 8
	for _, peers := range []int{2, 4, 8, 16} {
		b.Run(bench.F("peers=%d", peers), func(b *testing.B) {
			var steps, frames float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				links := fanout.Loopbacks(peers, fanout.Serve)
				eng, err := fanout.New(fanout.Config{N: n, K: k, Seed: 7}, links)
				if err != nil {
					b.Fatal(err)
				}
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 11, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				for s := 0; s < 30; s++ {
					src.Step(vals)
					eng.Observe(vals)
				}
				// Sum frames over the original link handles: the engine's own
				// TransportStats drops a merged-away peer's counters, which
				// would make the recovery delta negative.
				sumFrames := func() int64 {
					var total int64
					for _, l := range links {
						st := transport.StatsOf(l)
						total += st.SentFrames + st.RecvFrames
					}
					return total
				}
				links[peers-1].Close() // fail-stop one peer under the engine
				before := sumFrames()
				b.StartTimer()
				for h := eng.Health(); h.Recoveries == 0 || h.Degraded; h = eng.Health() {
					src.Step(vals)
					eng.Observe(vals)
					steps++
					if err := eng.Err(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				frames += float64(sumFrames() - before)
				eng.Close()
			}
			b.ReportMetric(steps/float64(b.N), "steps/recover")
			b.ReportMetric(frames/float64(b.N), "frames/recover")
		})
	}
}

// newTCPTopkTransport builds a topk.Transport over real loopback TCP links
// with in-process Serve goroutines on the dialing side — the public-API
// twin of tcpNetEngine, and the Transport `topkmon -serve` hands its
// monitor. The Monitor takes ownership, accepts the links when it asks for
// them, and closes it.
func newTCPTopkTransport(b *testing.B, peers int) topk.Transport {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		b.Skipf("cannot listen on loopback: %v", err)
	}
	for i := 0; i < peers; i++ {
		go func() {
			link, err := transport.Dial(ctx, ln.Addr())
			if err == nil {
				_ = fanout.Serve(link)
			}
		}()
	}
	return peerlinks.New(
		func() ([]transport.Link, error) { return ln.AcceptN(peers) },
		func() error {
			err := ln.Close()
			cancel()
			return err
		})
}

// BenchmarkAsyncThroughput measures sustained observation calls per
// second through the public asynchronous ingestion path: one producer
// feeds sparse delta calls (8 of 256 nodes move per call) through the
// bounded coalescing queue, across every engine — including the
// networked engine over both in-process pipes and real loopback TCP —
// and across queue depths, with depth=0 as the synchronous blocking
// baseline on the same workload. Next to the wall clock it reports
// obs/s, the coalescing ratio (updates superseded before execution, the
// work the queue saved), and steps/call (protocol steps actually run
// per observation call; 1.0 means no collapsing happened). Every run
// ends with a Drain so the measurement includes completing the backlog,
// not just staging it. On a single core the async gain is bounded —
// producer and worker share the CPU, so the win comes from coalescing,
// not overlap; see EXPERIMENTS.md E21 for the caveats. CI only smoke-runs
// it once (-benchtime=1x); benchmark/'s async-seq-shallow workload is the
// compared number.
func BenchmarkAsyncThroughput(b *testing.B) {
	const small, k, changed = 256, 8, 8
	engines := []struct {
		name   string
		n      int
		depths []int
		cfg    func(b *testing.B, n int) topk.Config
	}{
		{"seq", small, []int{0, 16, small}, func(b *testing.B, n int) topk.Config { return topk.Config{Nodes: n, K: k, Seed: 7} }},
		{"net-pipe", small, []int{0, 16, small}, func(b *testing.B, n int) topk.Config {
			return topk.Config{Nodes: n, K: k, Seed: 7, Transport: topk.Loopback(4)}
		}},
		{"net-tcp", small, []int{0, 16, small}, func(b *testing.B, n int) topk.Config {
			return topk.Config{Nodes: n, K: k, Seed: 7, Transport: newTCPTopkTransport(b, 4)}
		}},
		{"shard", small, []int{0, 16, small}, func(b *testing.B, n int) topk.Config {
			return topk.Config{Nodes: n, K: k, Seed: 7, Tree: topk.Tree{Branch: 2, Depth: 1}}
		}},
		// A queue in front of 2^20 nodes: where a buffer indexed by node id
		// would miss cache on every Put, one sized by the queue does not.
		{"seq/n=1048576", 1 << 20, []int{16}, func(b *testing.B, n int) topk.Config { return topk.Config{Nodes: n, K: k, Seed: 7} }},
	}
	for _, eng := range engines {
		n := eng.n
		for _, depth := range eng.depths {
			name := bench.F("%s/sync", eng.name)
			if depth > 0 {
				name = bench.F("%s/queue=%d", eng.name, depth)
			}
			b.Run(name, func(b *testing.B) {
				cfg := eng.cfg(b, n)
				cfg.Ingest = topk.Ingest{QueueDepth: depth}
				mon, err := topk.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(mon.Close)
				src := stream.NewSparseWalk(stream.SparseWalkConfig{
					N: n, Changed: changed, MaxStep: 1 << 11, Lo: 1 << 18, Hi: 1 << 24, Seed: 6,
				})
				ids := make([]int, n)
				vals := make([]int64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := src.StepDelta(ids, vals)
					if _, err := mon.ObserveDelta(ids[:c], vals[:c]); err != nil {
						b.Fatal(err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				err = mon.Drain(ctx)
				cancel()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
				if depth > 0 {
					st := mon.IngestStats()
					if st.Enqueued > 0 {
						b.ReportMetric(float64(st.Coalesced)/float64(st.Enqueued), "coalesce-ratio")
					}
					b.ReportMetric(float64(st.Batches)/float64(b.N), "steps/call")
				}
			})
		}
	}
}

// BenchmarkPendingBatch measures the coalescing buffer alone: one batch of
// Puts of distinct random nodes and the Take that hands it over, per op.
// The rows put a full batch through a shallow queue and a batch of 8
// through deep ones, the case where a Take that cleared its whole index
// would pay for the depth rather than the batch.
func BenchmarkPendingBatch(b *testing.B) {
	for _, tc := range []struct{ n, depth, batch int }{{1 << 20, 16, 16}, {1 << 20, 4096, 8}, {1 << 16, 1 << 16, 8}} {
		b.Run(bench.F("n=%d/queue=%d/batch=%d", tc.n, tc.depth, tc.batch), func(b *testing.B) {
			p := coord.NewPending(tc.n, tc.depth)
			ids, vals := make([]int, 0, tc.depth), make([]int64, 0, tc.depth)
			perm := rng.New(5, 0).Perm(tc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i * tc.batch % (tc.n - tc.batch)
				for j, id := range perm[off : off+tc.batch] {
					p.Put(id, int64(j))
				}
				ids, vals = p.Take(ids[:0], vals[:0])
			}
		})
	}
}

// BenchmarkOracle measures the reference top-k computation used by the
// correctness checks.
func BenchmarkOracle(b *testing.B) {
	const n = 1024
	src := stream.NewIID(stream.IIDConfig{N: n, Seed: 7, Dist: stream.Uniform, Lo: 0, Hi: 1 << 24})
	vals := make([]int64, n)
	src.Step(vals)
	codec, keys := order.NewCodec(n), make([]order.Key, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id, v := range vals {
			keys[id] = codec.Encode(v, id)
		}
	}
}

// BenchmarkCheckpoint measures the durable-checkpoint layer (E23, E25):
// what a checkpoint costs after a step that moved n/16 nodes and charged
// no message — a delta on the chain's base, or the base a chain is cut
// back to once its deltas would outgrow it; bytes/save and bases/save say
// how the saves split — against the in-memory store and the fsync-backed
// atomic file store, and the latency of topk.Restore from the chain the
// saves left. The restored sequential monitor is bit-identical to an
// uninterrupted twin, so re-convergence costs zero steps; the networked
// engines instead pay one forced FILTERRESET and are oracle-exact from the
// first post-restore step (DESIGN.md "Durable checkpointing &
// crash-restart").
func BenchmarkCheckpoint(b *testing.B) {
	const k, warm = 8, 64
	ctx := context.Background()
	// walker returns one sparse step of a drifting workload at a time:
	// wide at first, so that the warm-up resets; then moves small enough
	// that the steps after it stay inside the filters.
	walker := func(b *testing.B, mon *topk.Monitor, n int, seed uint64) func(quiet bool) {
		wide := stream.NewSparseWalk(stream.SparseWalkConfig{
			N: n, Changed: n / 16, MaxStep: 1 << 11, Lo: 1 << 18, Hi: 1 << 24, Seed: seed,
		})
		ids := make([]int, n)
		vals := make([]int64, n)
		cur := make([]int64, n)
		r := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: n / 16, MaxStep: 1, Lo: -1, Hi: 1, Seed: seed + 1})
		return func(quiet bool) {
			var c int
			if quiet {
				c = r.StepDelta(ids, vals) // who moves, and by -1, 0 or +1 around where the wide walk left it
				for j, id := range ids[:c] {
					vals[j] += cur[id]
				}
			} else {
				c = wide.StepDelta(ids, vals)
				for j, id := range ids[:c] {
					cur[id] = vals[j]
				}
			}
			if _, err := mon.ObserveDelta(ids[:c], vals[:c]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{256, 1024, 4096, 1 << 14} {
		for _, eps := range []float64{0, 0.05} {
			cfg := topk.Config{Nodes: n, K: k, Seed: 7, Epsilon: eps}
			stores := []struct {
				name string
				mk   func(b *testing.B) topk.CheckpointStore
			}{
				{"mem", func(b *testing.B) topk.CheckpointStore { return topk.MemCheckpoints() }},
				{"file", func(b *testing.B) topk.CheckpointStore {
					st, err := topk.FileCheckpoints(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					return st
				}},
			}
			start := func(b *testing.B, store topk.CheckpointStore) (*topk.Monitor, func(bool)) {
				c := cfg
				c.Checkpoint = topk.Checkpoint{Store: store}
				mon, err := topk.New(c)
				if err != nil {
					b.Fatal(err)
				}
				step := walker(b, mon, n, 6)
				for s := 0; s < warm; s++ {
					step(false)
				}
				return mon, step
			}
			if n > 4096 {
				// At 2^14 a base is over transport.Retention's floor: the row
				// prices the base re-cut after the monitor let go of the
				// buffer the last one grew. The file store adds fsync only.
				stores = stores[:1]
			}
			for _, st := range stores {
				b.Run(bench.F("save/%s/n=%d/eps=%g", st.name, n, eps), func(b *testing.B) {
					mon, step := start(b, st.mk(b))
					b.Cleanup(mon.Close)
					before := mon.CheckpointStats()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						step(true)
						b.StartTimer()
						if _, err := mon.Checkpoint(ctx); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					after := mon.CheckpointStats()
					b.ReportMetric(float64(after.Bytes-before.Bytes)/float64(b.N), "bytes/save")
					b.ReportMetric(float64(after.Bases-before.Bases)/float64(b.N), "bases/save")
				})
			}
			b.Run(bench.F("restore/n=%d/eps=%g", n, eps), func(b *testing.B) {
				store := topk.MemCheckpoints()
				mon, step := start(b, store)
				for s := 0; s < 8; s++ { // a base and seven deltas
					if _, err := mon.Checkpoint(ctx); err != nil {
						b.Fatal(err)
					}
					step(true)
				}
				mon.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := topk.Restore(store, cfg)
					if err != nil {
						b.Fatal(err)
					}
					r.Close()
				}
				if _, frame, err := store.Load(); err == nil {
					b.ReportMetric(float64(len(frame)), "chain-bytes")
				}
			})
		}
	}
}
