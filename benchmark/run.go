package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/topk"
)

// class is the regime one observation call fell into, read from the
// monitor's own counters after the call and outside its timed span.
type class uint8

const (
	classQuiet class = iota // every filter held
	classViol               // a violation was handled without a reset
	classReset              // a full FILTERRESET ran
	numClasses
)

func (c class) String() string { return [...]string{"quiet", "viol", "reset"}[c] }

// engine is what the harness drives: *topk.Monitor, or the hand-built
// tree of the traced run behind the same methods.
type engine interface {
	Observe(vals []int64) ([]int, error)
	ObserveDelta(ids []int, vals []int64) ([]int, error)
	Drain(ctx context.Context) error
	AppendTop(dst []int) []int
	Stats() topk.Stats
	Counts() topk.Counts
	Bytes() topk.Bytes
	TransportStats() topk.TransportStats
	Close()
}

// counters is the exact ledger state the end-to-end count metrics are
// deltas of.
type counters struct {
	Steps, Viol, Resets   int64
	Msgs, Ups, Bcasts     int64
	ModelBytes            int64
	LinkBytes, LinkFrames int64
}

func snap(e engine) counters {
	s, c, t := e.Stats(), e.Counts(), e.TransportStats()
	return counters{
		Steps: s.Steps, Viol: s.ViolationSteps, Resets: s.Resets,
		Msgs: c.Total(), Ups: c.Up, Bcasts: c.Broadcast,
		ModelBytes: e.Bytes().Total(),
		LinkBytes:  t.SentBytes + t.RecvBytes,
		LinkFrames: t.SentFrames + t.RecvFrames,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		Steps: c.Steps - o.Steps, Viol: c.Viol - o.Viol, Resets: c.Resets - o.Resets,
		Msgs: c.Msgs - o.Msgs, Ups: c.Ups - o.Ups, Bcasts: c.Bcasts - o.Bcasts,
		ModelBytes: c.ModelBytes - o.ModelBytes,
		LinkBytes:  c.LinkBytes - o.LinkBytes, LinkFrames: c.LinkFrames - o.LinkFrames,
	}
}

// mismatch is the first failed call of a run, kept for the exit report.
type mismatch struct {
	Workload string `json:"workload"`
	Step     int    `json:"step"`
	Err      string `json:"error,omitempty"`
	Got      []int  `json:"got,omitempty"`
	Want     []int  `json:"want,omitempty"`
}

func (m *mismatch) String() string {
	if m.Err != "" {
		return fmt.Sprintf("%s: step %d: %s", m.Workload, m.Step, m.Err)
	}
	return fmt.Sprintf("%s: step %d: reported %v, oracle %v", m.Workload, m.Step, m.Got, m.Want)
}

// runOpts selects how much one run measures and whether it is traced.
type runOpts struct {
	seed uint64
	// calls is the length of the timed region. limit, when set, ends the
	// region early once it has lasted that long: a guard for a host far
	// slower than the one the step counts were sized on.
	calls int
	limit time.Duration
	// repeatSetup sets the workload up several times (see setUps);
	// setup_s is the fastest of them.
	repeatSetup bool
	// tr records spans and interposes on links and stores; nil is the
	// untraced run the end-to-end metrics come from.
	tr *tracer
}

// runResult is everything one run measured, before metric arithmetic.
type runResult struct {
	Spec   spec
	Calls  int
	Batch  int     // calls per timed entry
	Durs   []int64 // in-call ns per entry
	Class  []class // per call; nil on async runs
	Setups []float64
	// InCallS is the summed in-call time of the timed region.
	InCallS float64

	Delta   counters // over the timed region
	Mallocs uint64   // over the timed region, harness's own subtracted
	HeapMB  float64
	GenNs   float64 // mean input generation time per call
	NewNs   float64 // monitor construction, handshake included
	CPUS    float64 // process CPU seconds over the timed region
	// Traced runs: the number of values each call carried, and the
	// broadcasts it charged (every protocol round ends with one).
	Updates []int32
	Bcasts  []int32
	// Tree workloads: coordination frames over the timed region, at the
	// root (Overhead) and per level, deepest first (TreeStats).
	Overhead int64
	Levels   []int64

	Checked, Failed int
	First           *mismatch
	Ingest          topk.IngestStats // async runs
}

// build constructs the workload's monitor. With a tracer, link ends and
// the checkpoint store are interposed (and the tree is built by hand,
// since Config.Tree keeps its links to itself).
func (w spec) build(seed uint64, tr *tracer) (engine, error) {
	cfg := w.config(seed)
	if w.CkptEvery > 0 {
		cfg.Checkpoint = topk.Checkpoint{Store: tr.wrapStore(topk.MemCheckpoints()), Every: w.CkptEvery}
	}
	switch w.Engine {
	case engPipe:
		if tr == nil {
			cfg.Transport = topk.Loopback(w.Peers)
		} else {
			cfg.Transport = pipeTransport(w.Peers, tr.wrapFn())
		}
	case engTCP:
		t, err := tcpTransport(w.Peers, tr.wrapFn())
		if err != nil {
			return nil, err
		}
		cfg.Transport = t
	case engTree:
		if tr != nil {
			return buildTracedTree(w, seed, tr)
		}
	}
	m, err := topk.New(cfg)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// setup is one set-up of a workload. Its time covers input generation,
// monitor construction (handshake, listen and dial included), the first
// call — which carries every node and pays the initial FILTERRESET — and
// a Drain. The other warm-up calls follow the last set-up, off the clock:
// they are ordinary steps, and what they cost is the seed's class mix (7
// to 160 ms over ten seeds of seq-dense-mixed), not set-up.
type setup struct {
	eng   engine
	feed  feeder
	secs  float64
	heap0 uint64 // live heap before the monitor existed
}

func (w spec) setUp(seed uint64, tr *tracer, res *runResult) (setup, error) {
	t0 := time.Now()
	feed := w.newFeeder(seed)
	// The heap baseline sits between input generation and construction so
	// that heap_mb is the monitor's own; the collection is not set-up time.
	pause := time.Now()
	heap0 := liveHeap()
	t0 = t0.Add(time.Since(pause))
	b0 := time.Now()
	eng, err := w.build(seed, tr)
	if err != nil {
		return setup{}, err
	}
	res.NewNs = float64(time.Since(b0))
	w.warm(eng, feed, 1, res)
	return setup{eng: eng, feed: feed, secs: time.Since(t0).Seconds(), heap0: heap0}, nil
}

// warm makes calls untimed calls and a Drain.
func (w spec) warm(eng engine, feed feeder, calls int, res *runResult) {
	for i := 0; i < calls; i++ {
		ids, vals := feed.next()
		if _, err := call(eng, ids, vals); err != nil {
			res.fail(&mismatch{Workload: w.Name, Step: -1, Err: "warm-up: " + err.Error()})
		}
	}
	if err := eng.Drain(context.Background()); err != nil {
		res.fail(&mismatch{Workload: w.Name, Step: -1, Err: "warm-up: " + err.Error()})
	}
}

func call(e engine, ids []int, vals []int64) ([]int, error) {
	if ids == nil {
		return e.Observe(vals)
	}
	return e.ObserveDelta(ids, vals)
}

func (r *runResult) fail(m *mismatch) {
	r.Failed++
	if r.First == nil {
		r.First = m
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// A run that repeats its set-up does so before its timed region and
// again after it, so that the samples straddle the ten seconds over which
// the host drifts: minSetups set-ups in all, and more, up to maxSetups on
// each side, until those of a side have taken setupsFor together. The
// tests shorten the repeats.
const (
	minSetups = 3
	maxSetups = 100
)

var setupsFor = 750 * time.Millisecond

// setUps sets the workload up once, or at least atLeast times when o
// asks for repeats, recording every set-up's time in res. It returns the
// last set-up still open when keep is set, and closes it otherwise.
func (w spec) setUps(o runOpts, res *runResult, atLeast int, keep bool) (setup, error) {
	var su setup
	var total float64
	for i := 0; i == 0 || (o.repeatSetup && i < maxSetups && (i < atLeast || total < setupsFor.Seconds())); i++ {
		if su.eng != nil {
			su.eng.Close()
		}
		var err error
		if su, err = w.setUp(o.seed, o.tr, res); err != nil {
			return setup{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		res.Setups = append(res.Setups, su.secs)
		total += su.secs
	}
	if !keep {
		su.eng.Close()
		su = setup{}
	}
	return su, nil
}

// asyncBatch is how many async calls one untraced timed entry covers: a
// call costs about as much as two clock reads, so calls are timed in
// groups. A traced run times every call.
const asyncBatch = 64

// run sets the workload up, measures its timed region and tears it down.
// It returns an error only when the run could not be made at all; failed
// calls and wrong reports are counted in the result.
func run(w spec, o runOpts) (*runResult, error) {
	res := &runResult{Spec: w, Batch: 1}
	if w.Async && o.tr == nil {
		res.Batch = asyncBatch
	}
	goroutines := runtime.NumGoroutine()

	su, err := w.setUps(o, res, minSetups-1, true)
	if err != nil {
		return nil, err
	}
	eng, feed := su.eng, su.feed
	defer eng.Close()
	w.warm(eng, feed, warmupSteps-1, res)
	if h := liveHeap(); h > su.heap0 {
		res.HeapMB = float64(h-su.heap0) / (1 << 20)
	}

	// Pre-size everything the timed region appends to.
	res.Durs = make([]int64, 0, o.calls/res.Batch+1)
	if !w.Async {
		res.Class = make([]class, 0, o.calls)
	}
	if o.tr != nil {
		res.Updates = make([]int32, 0, o.calls)
		res.Bcasts = make([]int32, 0, o.calls)
	}
	topBuf := make([]int, 0, w.K)
	// One slot per call of a batch; a batch of one aliases the feeder.
	slotIDs := make([][]int, res.Batch)
	slotVals := make([][]int64, res.Batch)
	if res.Batch > 1 {
		for b := range slotIDs {
			slotIDs[b] = make([]int, 0, w.Changed)
			slotVals[b] = make([]int64, 0, w.Changed)
		}
	}
	// verify checks one report against topk.Oracle, outside every timed
	// span; the oracle's allocations are counted so that allocs_per_step
	// stays the monitor's own.
	var ownMallocs uint64
	verify := func(step int, top []int) {
		m0 := mallocs()
		want, err := topk.Oracle(feed.cur(), w.K)
		ownMallocs += mallocs() - m0
		res.Checked++
		switch {
		case err != nil:
			res.fail(&mismatch{Workload: w.Name, Step: step, Err: "oracle: " + err.Error()})
		case !slices.Equal(want, top):
			res.fail(&mismatch{Workload: w.Name, Step: step, Got: slices.Clone(top), Want: want})
		}
	}

	levels0, overhead0, err := treeTraffic(eng)
	if err != nil {
		return nil, fmt.Errorf("%s: tree stats: %w", w.Name, err)
	}
	before := snap(eng)
	prev := eng.Stats()
	prevBcast := before.Bcasts
	mallocs0 := mallocs()
	cpu0 := cpuSeconds()
	var genNs int64
	base := time.Now()
	o.tr.start(base)
	for res.Calls < o.calls {
		if o.limit > 0 && time.Since(base) >= o.limit {
			fmt.Fprintf(os.Stderr, "benchmark: %s: stopped after %d of %d calls, %v into the timed region\n", w.Name, res.Calls, o.calls, o.limit)
			break
		}
		g0 := time.Now()
		for b := 0; b < res.Batch; b++ {
			ids, vals := feed.next()
			if res.Batch == 1 {
				slotIDs[0], slotVals[0] = ids, vals
			} else {
				slotIDs[b] = append(slotIDs[b][:0], ids...)
				slotVals[b] = append(slotVals[b][:0], vals...)
			}
		}
		genNs += int64(time.Since(g0))

		step := res.Calls
		var top []int
		var err error
		o.tr.beginCall(step)
		t0 := time.Now()
		for b := 0; b < res.Batch && err == nil; b++ {
			top, err = call(eng, slotIDs[b], slotVals[b])
		}
		d := time.Since(t0)
		o.tr.endCall(step, t0, d)
		res.Calls += res.Batch
		if err == nil && w.Async && res.Calls%w.DrainEvery == 0 {
			var dd time.Duration
			if dd, err = timedDrain(eng, o.tr, step); err == nil {
				topBuf = eng.AppendTop(topBuf[:0])
				verify(step, topBuf)
			}
			d += dd
		}
		res.Durs = append(res.Durs, int64(d))
		if err != nil {
			res.fail(&mismatch{Workload: w.Name, Step: step, Err: err.Error()})
		}
		if o.tr != nil {
			bc := eng.Counts().Broadcast
			res.Updates = append(res.Updates, int32(len(slotVals[0])))
			res.Bcasts = append(res.Bcasts, int32(bc-prevBcast))
			prevBcast = bc
		}
		if w.Async {
			continue
		}
		now := eng.Stats()
		cl := classQuiet
		switch {
		case now.Resets > prev.Resets:
			cl = classReset
		case now.ViolationSteps > prev.ViolationSteps:
			cl = classViol
		}
		prev = now
		res.Class = append(res.Class, cl)
		if err == nil && step%w.CheckEvery == 0 {
			verify(step, top)
		}
	}
	if w.Async && len(res.Durs) > 0 {
		// The closing Drain is part of the last entry's in-call time.
		dd, err := timedDrain(eng, o.tr, res.Calls-1)
		if err != nil {
			res.fail(&mismatch{Workload: w.Name, Step: res.Calls - 1, Err: err.Error()})
		}
		res.Durs[len(res.Durs)-1] += int64(dd)
	}
	o.tr.stop()
	res.CPUS = cpuSeconds() - cpu0
	res.Mallocs = mallocs() - mallocs0 - ownMallocs
	res.Delta = snap(eng).sub(before)
	levels1, overhead1, err := treeTraffic(eng) // after Delta: the poll itself crosses the links
	if err != nil {
		return nil, fmt.Errorf("%s: tree stats: %w", w.Name, err)
	}
	res.Overhead = overhead1 - overhead0
	for i := range levels1 {
		res.Levels = append(res.Levels, levels1[i]-levels0[i])
	}
	// The last report is always checked, whatever the cadence.
	topBuf = eng.AppendTop(topBuf[:0])
	verify(res.Calls, topBuf)
	for _, d := range res.Durs {
		res.InCallS += float64(d) / 1e9
	}
	if res.Calls > 0 {
		res.GenNs = float64(genNs) / float64(res.Calls)
	}
	if m, ok := eng.(*topk.Monitor); ok {
		res.Ingest = m.IngestStats()
	}

	eng.Close()
	if o.repeatSetup {
		if _, err := w.setUps(o, res, 1, false); err != nil {
			return nil, err
		}
	}
	if err := waitGoroutines(goroutines); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, nil
}

// treeTraffic reads a tree monitor's coordination ledgers: frames per
// level, deepest first and ending with the root's, and the root's
// overhead messages. Other engines report nothing.
func treeTraffic(eng engine) (levels []int64, overhead int64, err error) {
	var ts topk.TreeStats
	switch e := eng.(type) {
	case *topk.Monitor:
		c, _ := e.Overhead()
		overhead = c.Total()
		ts, err = e.TreeStats()
	case *treeEngine:
		overhead = e.e.Overhead().Total()
		ws, werr := e.e.TreeStats()
		err = werr
		for _, lv := range ws.Levels {
			ts.Levels = append(ts.Levels, topk.LevelIO{Down: lv.Down, Up: lv.Up})
		}
	}
	for _, lv := range ts.Levels {
		levels = append(levels, lv.Down+lv.Up)
	}
	return levels, overhead, err
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedDrain runs one Drain and returns how long the caller waited.
func timedDrain(eng engine, tr *tracer, step int) (time.Duration, error) {
	t0 := time.Now()
	err := eng.Drain(context.Background())
	d := time.Since(t0)
	tr.drain(step, t0, d)
	return d, err
}

// waitGoroutines waits for the goroutine count to return to its
// pre-workload value: no serve loop, reader or listener may outlive Close.
func waitGoroutines(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlived the workload (had %d before, %d after Close)", got-want, want, got)
		}
		time.Sleep(time.Millisecond)
	}
}
