package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/topk"
)

// Isolated drives: each layer's exported functions are timed on their
// own, with the workload's sizes and inputs, so that a step's cost can be
// set against a sum of unit costs (the budget table). They run after the
// traced run, single-threaded, and only for the layers the workload's
// path crosses; a metric off the path reads 0.

// opSamples is how many timed batches a unit cost is the fastest of, and
// opTarget how long one batch runs. The tests shorten the batches.
const opSamples = 5

var opTarget = 10 * time.Millisecond

// timeOp returns the nanoseconds one call of fn takes: the fastest of
// opSamples batches, each long enough to dwarf the clock reads. The host
// slows down for tens of milliseconds at a time, and contention only
// ever adds time.
func timeOp(fn func()) float64 {
	target := opTarget
	iters := 1
	var samples []float64
	for len(samples) < opSamples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(t0)
		if d < target && iters < 1<<26 && len(samples) == 0 {
			// Still calibrating the batch size.
			if d < target/16 {
				iters *= 8
			} else {
				iters *= 2
			}
			continue
		}
		samples = append(samples, float64(d)/float64(iters))
	}
	return slices.Min(samples)
}

// driveBudget bounds a drive that replays the workload's own trace.
var driveBudget = 800 * time.Millisecond

// replayer is the subset of an engine the trace replays need.
type replayer interface {
	Observe(vals []int64) []int
	ObserveDelta(ids []int, vals []int64) []int
	Stats() coord.Stats
}

// replay feeds the workload's trace (same seed, same warm-up) straight
// into an internal engine, for at most calls timed calls, and returns the
// mean in-call nanoseconds per call and, over the violation-free calls
// alone, per update.
func replay(w spec, seed uint64, eng replayer, calls int) (perCall, quietPerUpdate float64) {
	feed := w.newFeeder(seed)
	step := func() (time.Duration, int) {
		ids, vals := feed.next()
		t0 := time.Now()
		if ids == nil {
			eng.Observe(vals)
		} else {
			eng.ObserveDelta(ids, vals)
		}
		return time.Since(t0), len(vals)
	}
	for i := 0; i < warmupSteps; i++ {
		step()
	}
	var ns, quietNs time.Duration
	var n, quietUpdates int
	prev := eng.Stats().ViolationSteps
	for start := time.Now(); n < calls && time.Since(start) < driveBudget; n++ {
		d, u := step()
		ns += d
		if now := eng.Stats().ViolationSteps; now == prev {
			quietNs += d
			quietUpdates += u
		} else {
			prev = now
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(ns) / float64(n), float64(quietNs) / float64(max(quietUpdates, 1))
}

// installedBank returns a standalone node bank over [0, n) holding vals
// with the canonical filters of their top-k set installed, as a host's
// bank is between steps.
func installedBank(w spec, seed uint64, vals []int64) (*coord.Nodes, error) {
	bank := coord.NewNodes(w.N, 0, w.N, seed, false, order.Tol{})
	for i, v := range vals {
		if _, _, err := bank.Observe(i, v, 0); err != nil {
			return nil, err
		}
	}
	top, err := topk.Oracle(vals, w.K)
	if err != nil {
		return nil, err
	}
	in := make([]bool, w.N)
	bank.ResetBegin()
	for _, id := range top {
		in[id] = true
		bank.Winner(id, true)
	}
	minTop, maxOut := order.PosInf, order.NegInf
	for i := range vals {
		if in[i] {
			minTop = order.Min(minTop, bank.Key(i))
		} else {
			maxOut = order.Max(maxOut, bank.Key(i))
		}
	}
	bank.Midpoint(order.Midpoint(maxOut, minTop), w.K == w.N)
	return bank, nil
}

// quietMachine returns a coordinator machine past its initial reset,
// every effect answered by a no-op runner: extraction i is won by node i.
func quietMachine(n, k int) *coord.Machine {
	m := coord.New(coord.Config{N: n, K: k})
	m.BeginStep()
	next := 0
	for eff := m.FinishStep(false, false); eff.Kind != coord.EffDone; {
		if eff.Kind == coord.EffExec {
			eff = m.ExecDone(true, next, order.Key(n-next))
			next++
		} else {
			eff = m.Ack()
		}
	}
	return m
}

// clockPair is what one time.Now/time.Since pair costs, for the drives
// that must time spans of a few hundred nanoseconds.
func clockPair() float64 {
	var sink time.Duration
	ns := timeOp(func() { sink += time.Since(time.Now()) })
	_ = sink
	return ns
}

// isolated fills m with the unit costs of the layers on w's path.
func isolated(w spec, seed uint64, calls int, m map[string]float64) error {
	feed := w.newFeeder(seed)
	_, first := feed.next()
	vals := slices.Clone(first) // the first step carries every node
	if len(vals) != w.N {
		return fmt.Errorf("%s: first step carries %d of %d nodes", w.Name, len(vals), w.N)
	}

	// core: the sequential engine under topk; topk minus core is the API's
	// own cost.
	perCall, perUpdate := replay(w, seed, core.New(core.Config{N: w.N, K: w.K, Seed: seed}), calls)
	m["core.observe_ns"] = perCall
	m["core.observe_delta_ns_per_update"] = perUpdate

	// runtime: the concurrent engine has no workload of its own; it gets
	// the dense-mixed trace, the number its keep-or-delete verdict needs.
	if w.Input == inRandomWalk && w.N <= 4096 {
		rt := runtime.New(runtime.Config{N: w.N, K: w.K, Seed: seed})
		m["runtime.observe_ns"], _ = replay(w, seed, rt, calls)
		rt.Close()
	}

	// coord: node bank, machine, pending buffer.
	bank, err := installedBank(w, seed, vals)
	if err != nil {
		return err
	}
	var ns time.Duration
	var updates int
	for start := time.Now(); time.Since(start) < driveBudget/4; {
		ids, vs := feed.next()
		t0 := time.Now()
		for j, v := range vs {
			id := j
			if ids != nil {
				id = ids[j]
			}
			if _, _, err := bank.Observe(id, v, 1); err != nil {
				return err
			}
		}
		ns += time.Since(t0)
		updates += len(vs)
	}
	m["coord.nodes_observe_ns_per_update"] = float64(ns) / float64(max(updates, 1))
	rounds := protocol.Rounds(w.N)
	bank.ResetBegin()
	m["coord.nodes_round_ns_per_node"] = timeOp(func() {
		best := order.NegInf
		for r := 0; r < rounds; r++ {
			roundBest := best
			bank.Round(coord.TagReset, r, roundBest, w.N, 1, func(_ int, key order.Key) { best = order.Max(best, key) })
		}
	}) / float64(w.N*rounds)
	mach := quietMachine(w.N, w.K)
	m["coord.machine_quiet_step_ns"] = timeOp(func() {
		mach.BeginStep()
		mach.FinishStep(false, false)
	})
	if w.Async {
		clk := clockPair()
		pend := coord.NewPending(w.N, asyncDepth)
		ids := make([]int, 0, asyncDepth)
		pv := make([]int64, 0, asyncDepth)
		r := rng.New(seed, 0x9e4d)
		var put, take time.Duration
		const loops = 20000
		for i := 0; i < loops; i++ {
			base := r.Intn(w.N - asyncDepth)
			t0 := time.Now()
			for j := 0; j < asyncDepth; j++ {
				pend.Put(base+j, int64(j))
			}
			put += time.Since(t0)
			t0 = time.Now()
			ids, pv = pend.Take(ids[:0], pv[:0])
			take += time.Since(t0)
		}
		m["coord.pending_put_ns"] = max(float64(put)/loops-clk, 0) / asyncDepth
		m["coord.pending_take_ns_per_entry"] = max(float64(take)/loops-clk, 0) / asyncDepth
	}

	// protocol: one Algorithm 2 execution over n and over k participants.
	root := rng.New(seed, 0xbe)
	perm := root.Perm(w.N)
	parts := make([]protocol.Participant, w.N)
	for i := range parts {
		parts[i] = protocol.Participant{ID: i, Key: order.Key(perm[i] + 1), RNG: root.Split(uint64(i))}
	}
	var sc protocol.Scratch
	var execs, execRounds int
	m["protocol.exec_ns_n"] = timeOp(func() {
		execRounds += sc.Maximum(parts, w.N, comm.Discard, nil, 0).Rounds
		execs++
	})
	m["protocol.rounds_per_exec"] = float64(execRounds) / float64(execs)
	m["protocol.exec_ns_k"] = timeOp(func() { sc.Maximum(parts[:w.K], w.K, comm.Discard, nil, 0) })

	// filter, order.
	fs := filter.NewSet(w.N, w.K)
	tops := [2][]int{make([]int, w.K), make([]int, w.K)}
	for i := 0; i < w.K; i++ {
		tops[0][i], tops[1][i] = i, w.N-1-i
	}
	flip := 0
	m["filter.set_membership_ns"] = timeOp(func() { fs.SetMembership(tops[flip]); flip ^= 1 })
	m["filter.assign_band_ns"] = timeOp(func() { fs.AssignBand(order.Key(flip), order.Key(flip)); flip ^= 1 })
	codec := order.NewCodec(w.N)
	var ksink order.Key
	m["order.encode_ns"] = timeOp(func() {
		for i, v := range vals {
			ksink += codec.Encode(v, i)
		}
	}) / float64(w.N)
	_ = ksink

	if w.Engine != engSeq {
		if err := isolatedWire(w, vals, m); err != nil {
			return err
		}
		if err := isolatedTransport(w, vals, m); err != nil {
			return err
		}
	}
	if w.CkptEvery > 0 {
		return isolatedCheckpoint(w, seed, m)
	}
	return nil
}

// fanout is how many links the workload's coordinator drives.
func (w spec) fanout() int {
	if w.Engine == engTree {
		return w.Branch
	}
	return max(w.Peers, 1)
}

// isolatedWire times Append and Decode of each message at the sizes the
// workload's coordinator sends: one peer's range for the value frames.
func isolatedWire(w spec, vals []int64, m map[string]float64) error {
	per := w.N / w.fanout()
	var buf []byte
	var bad error
	pair := func(enc, dec string, div int, append func() []byte, decode func([]byte) error) {
		m[enc] = timeOp(func() { buf = append() }) / float64(div)
		frame := slices.Clone(append())
		m[dec] = timeOp(func() {
			if err := decode(frame); err != nil {
				bad = fmt.Errorf("%s: %w", dec, err)
			}
		}) / float64(div)
	}

	obs := wire.Observe{Step: 7, Vals: vals[:per]}
	var obsDec wire.Observe
	pair("wire.observe_enc_ns_per_value", "wire.observe_dec_ns_per_value", per,
		func() []byte { return obs.Append(buf[:0]) },
		obsDec.Decode)

	// The sparse alternative for the same range, one node in sixteen.
	sparse := max(per/16, 1)
	delta := wire.ObserveDelta{Step: 7}
	for i := 0; i < sparse; i++ {
		delta.IDs = append(delta.IDs, i*16)
		delta.Vals = append(delta.Vals, vals[i*16])
	}
	var deltaDec wire.ObserveDelta
	pair("wire.delta_enc_ns_per_value", "wire.delta_dec_ns_per_value", sparse,
		func() []byte { return delta.Append(buf[:0]) },
		deltaDec.Decode)

	round := wire.Round{Tag: coord.TagReset, Round: 3, Best: vals[0], Bound: w.N, Step: 7}
	pair("wire.round_enc_ns", "wire.round_dec_ns", 1,
		func() []byte { return round.Append(buf[:0]) },
		func(p []byte) error { _, err := wire.DecodeRound(p); return err })

	reply := wire.Reply{IDs: []int{per / 3, per / 2}, Keys: []int64{vals[0], vals[1]}}
	var replyDec wire.Reply
	pair("wire.reply_enc_ns", "wire.reply_dec_ns", 1,
		func() []byte { return reply.Append(buf[:0]) },
		replyDec.Decode)

	digest := wire.ShardDigest{OK: true, ID: per / 2, Key: vals[0], Ups: 9, UpBytes: 80, Bcasts: 13, BcastBytes: 120}
	pair("wire.digest_enc_ns", "wire.digest_dec_ns", 1,
		func() []byte { return digest.Append(buf[:0]) },
		func(p []byte) error { _, err := wire.DecodeShardDigest(p); return err })

	// A reset's trailing commands ride as one batch: k+1 Winners.
	batch := wire.Batch{}
	for i := 0; i <= w.K; i++ {
		batch.Frames = append(batch.Frames, wire.Winner{Target: i, IsTop: i < w.K}.Append(nil))
	}
	var batchDec wire.Batch
	pair("wire.batch_enc_ns_per_sub", "wire.batch_dec_ns_per_sub", len(batch.Frames),
		func() []byte { return batch.Append(buf[:0]) },
		batchDec.Decode)
	return bad
}

// echo answers every frame on l with a 16-byte reply until l closes.
func echo(l transport.Link) error {
	reply := make([]byte, 16)
	for {
		if _, err := l.Recv(); err != nil {
			return nil // closed: the drive is over
		}
		if err := l.Send(reply); err != nil {
			return nil
		}
		if err := transport.Flush(l); err != nil {
			return nil
		}
	}
}

// roundTrip is the nanoseconds one request of the given size and its
// 16-byte reply take over the link a, whose far end runs echo.
func roundTrip(a transport.Link, payload []byte) (float64, error) {
	var err error
	ns := timeOp(func() {
		if err != nil {
			return
		}
		if err = a.Send(payload); err != nil {
			return
		}
		if err = transport.Flush(a); err != nil {
			return
		}
		_, err = a.Recv()
	})
	return ns, err
}

// isolatedTransport ping-pongs a 16-byte frame and one dense Observe
// frame of the workload over a bare pipe and over real loopback TCP.
func isolatedTransport(w spec, vals []int64, m map[string]float64) error {
	small := make([]byte, 16)
	bulk := wire.Observe{Step: 7, Vals: vals[:w.N/w.fanout()]}.Append(nil)
	kb := float64(len(bulk)) / 1024

	var wg sync.WaitGroup
	a, b := transport.Pipe()
	serve(&wg, b, echo)
	rtt, err := roundTrip(a, small)
	if err == nil {
		m["transport.pipe_rtt_ns"] = rtt
		rtt, err = roundTrip(a, bulk)
		m["transport.pipe_bulk_ns_per_kb"] = rtt / kb
	}
	a.Close()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("pipe round trip: %w", err)
	}

	t, err := tcpLinks(1, nil, echo)
	if err != nil {
		return err
	}
	defer t.Close()
	tl := t.links[0].(transport.Link)
	if rtt, err = roundTrip(tl, small); err != nil {
		return fmt.Errorf("tcp round trip: %w", err)
	}
	m["transport.tcp_rtt_ns"] = rtt
	if rtt, err = roundTrip(tl, bulk); err != nil {
		return fmt.Errorf("tcp round trip: %w", err)
	}
	m["transport.tcp_bulk_ns_per_kb"] = rtt / kb
	return nil
}

// isolatedCheckpoint times the checkpoint frame codec at the workload's
// size, the file store on this disk, and a full Restore.
func isolatedCheckpoint(w spec, seed uint64, m map[string]float64) error {
	cm := core.New(core.Config{N: w.N, K: w.K, Seed: seed})
	replay(w, seed, cm, 0)
	mach, nodes, err := cm.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	c := wire.Checkpoint{Gen: 1, Engine: wire.EngineSeq, Seed: seed, Machine: mach, Nodes: nodes}
	var buf []byte
	m["wire.checkpoint_enc_ns_per_node"] = timeOp(func() { buf = c.Append(buf[:0]) }) / float64(w.N)
	var dec wire.Checkpoint
	m["wire.checkpoint_dec_ns_per_node"] = timeOp(func() {
		if derr := dec.Decode(buf); derr != nil {
			err = fmt.Errorf("checkpoint decode: %w", derr)
		}
	}) / float64(w.N)
	if err != nil {
		return err
	}

	// The file store fsyncs: this is this disk's number, nobody else's.
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := topk.FileCheckpoints(dir)
	if err != nil {
		return err
	}
	var saves, restores []float64
	for gen := uint64(1); gen <= 5; gen++ {
		c.Gen = gen
		frame := c.Append(nil)
		t0 := time.Now()
		if err := store.Save(gen, frame); err != nil {
			return fmt.Errorf("file save: %w", err)
		}
		saves = append(saves, float64(time.Since(t0)))
	}
	m["ckpt.file_save_ns"] = median(saves)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		mon, err := topk.Restore(store, topk.Config{Nodes: w.N, K: w.K, Seed: seed})
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, float64(time.Since(t0))/1e6)
		mon.Close()
	}
	m["ckpt.restore_ms"] = median(restores)
	return nil
}
