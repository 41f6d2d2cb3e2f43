package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shardrun"
	"repro/internal/transport"
	"repro/topk"
)

// Span kinds. A traced run records one root span per observation call
// and child spans from the interposed links and the checkpoint store.
const (
	spanObserve uint8 = iota // topk.observe: one observation call
	spanSend                 // transport.send: Link.Send
	spanFlush                // transport.flush: Flush
	spanRecv                 // transport.recv: Link.Recv, call to return
	spanSave                 // ckpt.save: CheckpointStore.Save
	spanDrain                // ingest.drain: Monitor.Drain
)

var spanNames = [...]string{"topk.observe", "transport.send", "transport.flush", "transport.recv", "ckpt.save", "ingest.drain"}

// Link-end roles. The coordinator end of a link is where the engine
// under test sends commands; the serve end is where a host, a tree
// interior or a leaf agent answers them.
const (
	roleCoord    = "coord"    // root coordinator end (netrun or shardrun)
	roleHost     = "host"     // netrun.Serve end
	roleInterior = "interior" // ServeInterior's end toward its parent
	roleRelay    = "relay"    // ServeInterior's ends toward its children
	roleAgent    = "agent"    // ServeShard end
)

// span is one recorded interval, in nanoseconds since the timed region
// began. where indexes tracer.ends for link spans and is -1 otherwise.
type span struct {
	start, end int64
	step       int32
	where      int16
	kind       uint8
}

// spanBuf is the buffer of one recording goroutine. The lock is never
// contended while recording; it orders the analysis after the recorder.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

func (b *spanBuf) take() []span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spans
}

// tracer is the span recorder of one traced run. A nil tracer is the
// untraced run: every method is a no-op and nothing is interposed.
type tracer struct {
	base time.Time
	on   atomic.Bool  // spans and frame counts are kept only in the timed region
	step atomic.Int32 // step index of the call in flight

	root  spanBuf // the harness goroutine: observe and drain spans
	ends  []*tracedLink
	store *tracedStore
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) start(base time.Time) {
	if t == nil {
		return
	}
	t.base = base
	t.on.Store(true)
}

func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) beginCall(step int) {
	if t != nil {
		t.step.Store(int32(step))
	}
}

func (t *tracer) endCall(step int, t0 time.Time, d time.Duration) {
	if t != nil {
		t.rootSpan(spanObserve, step, t0, d)
	}
}

// drain records the harness's wait in one Monitor.Drain.
func (t *tracer) drain(step int, t0 time.Time, d time.Duration) {
	if t != nil {
		t.rootSpan(spanDrain, step, t0, d)
	}
}

func (t *tracer) rootSpan(kind uint8, step int, t0 time.Time, d time.Duration) {
	start := int64(t0.Sub(t.base))
	t.root.add(span{start: start, end: start + int64(d), step: int32(step), where: -1, kind: kind})
}

// wrapFn returns the link interposer, or nil for the untraced run.
func (t *tracer) wrapFn() wrapFn {
	if t == nil {
		return nil
	}
	return t.wrapLink
}

func (t *tracer) wrapLink(l transport.Link, role string, index int) transport.Link {
	tl := &tracedLink{inner: l, tr: t, role: role, index: index, where: int16(len(t.ends))}
	t.ends = append(t.ends, tl)
	return tl
}

// wrapStore interposes on the checkpoint store; the untraced run keeps
// the bare store.
func (t *tracer) wrapStore(s topk.CheckpointStore) topk.CheckpointStore {
	if t == nil {
		return s
	}
	t.store = &tracedStore{inner: s, tr: t}
	return t.store
}

// frameCounts is what crossed one direction of a link end.
type frameCounts struct {
	frames, bytes atomic.Int64
}

func (c *frameCounts) add(payload []byte) {
	c.frames.Add(1)
	c.bytes.Add(int64(len(payload)))
}

// tracedLink interposes on one link end. It forwards Flush and Stats —
// the engines probe both dynamically, and hiding Flush would silently
// change the framing under measurement.
type tracedLink struct {
	inner transport.Link
	tr    *tracer
	role  string
	index int
	where int16

	// Send and Flush share a goroutine; Recv may run on a reader.
	out, in    spanBuf
	sent, rcvd frameCounts
}

func (l *tracedLink) record(buf *spanBuf, kind uint8, t0 time.Time) {
	now := time.Now()
	start := int64(t0.Sub(l.tr.base))
	buf.add(span{start: start, end: start + int64(now.Sub(t0)), step: l.tr.step.Load(), where: l.where, kind: kind})
}

func (l *tracedLink) Send(payload []byte) error {
	if !l.tr.on.Load() {
		return l.inner.Send(payload)
	}
	t0 := time.Now()
	err := l.inner.Send(payload)
	l.record(&l.out, spanSend, t0)
	l.sent.add(payload)
	return err
}

func (l *tracedLink) Flush() error {
	if !l.tr.on.Load() {
		return transport.Flush(l.inner)
	}
	t0 := time.Now()
	err := transport.Flush(l.inner)
	l.record(&l.out, spanFlush, t0)
	return err
}

func (l *tracedLink) Recv() ([]byte, error) {
	t0 := time.Now()
	p, err := l.inner.Recv()
	if err == nil && l.tr.on.Load() {
		l.record(&l.in, spanRecv, t0)
		l.rcvd.add(p)
	}
	return p, err
}

func (l *tracedLink) Close() error { return l.inner.Close() }

func (l *tracedLink) Stats() transport.LinkStats { return transport.StatsOf(l.inner) }

// tracedStore times Save and sizes the frames.
type tracedStore struct {
	inner topk.CheckpointStore
	tr    *tracer
	buf   spanBuf
	saves atomic.Int64
	bytes atomic.Int64
	fails atomic.Int64
}

func (s *tracedStore) Save(gen uint64, frame []byte) error {
	if !s.tr.on.Load() {
		return s.inner.Save(gen, frame)
	}
	t0 := time.Now()
	err := s.inner.Save(gen, frame)
	d := time.Since(t0)
	start := int64(t0.Sub(s.tr.base))
	s.buf.add(span{start: start, end: start + int64(d), step: s.tr.step.Load(), where: -1, kind: spanSave})
	s.saves.Add(1)
	s.bytes.Add(int64(len(frame)))
	if err != nil {
		s.fails.Add(1)
	}
	return err
}

func (s *tracedStore) Load() (uint64, []byte, error) { return s.inner.Load() }

// coordFramesPerCall counts, per traced call, the frames the root
// coordinator's link ends sent and received.
func (t *tracer) coordFramesPerCall(calls int) []float64 {
	var out []float64
	for _, e := range t.ends {
		if e.role != roleCoord {
			continue
		}
		if out == nil {
			out = make([]float64, calls)
		}
		for _, buf := range []*spanBuf{&e.out, &e.in} {
			for _, s := range buf.take() {
				if s.kind != spanFlush && int(s.step) < calls && s.step >= 0 {
					out[s.step]++
				}
			}
		}
	}
	return out
}

// all returns every recorded span, root spans first.
func (t *tracer) all() []span {
	out := append([]span(nil), t.root.take()...)
	if t.store != nil {
		out = append(out, t.store.buf.take()...)
	}
	for _, e := range t.ends {
		out = append(out, e.out.take()...)
		out = append(out, e.in.take()...)
	}
	return out
}

// write dumps the spans as JSON lines: name, start, end, parent, step,
// and the link end ("role/index") a transport span was recorded at.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		Name     string `json:"name"`
		Start    int64  `json:"start"`
		End      int64  `json:"end"`
		Parent   string `json:"parent,omitempty"`
		Step     int32  `json:"step"`
		Where    string `json:"where,omitempty"`
	}
	for _, s := range t.all() {
		ln := line{Workload: workload, Name: spanNames[s.kind], Start: s.start, End: s.end, Step: s.step}
		if s.kind != spanObserve {
			ln.Parent = spanNames[spanObserve]
		}
		if s.where >= 0 {
			e := t.ends[s.where]
			ln.Where = e.role + "/" + strconv.Itoa(e.index)
		}
		if err := enc.Encode(ln); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// treeEngine drives a hand-built coordinator tree — what Config.Tree
// builds internally, but over links the tracer can see — behind the
// engine interface.
type treeEngine struct {
	e  *shardrun.Engine
	wg *sync.WaitGroup
}

// buildTracedTree assembles the workload's Branch^Depth tree from
// shardrun.New, ServeInterior and ServeShard over interposed pipes at
// every level.
func buildTracedTree(w spec, seed uint64, tr *tracer) (engine, error) {
	wg := &sync.WaitGroup{}
	links := make([]transport.Link, w.Branch)
	next := 0
	for i := range links {
		links[i] = tracedSubtree(w.Branch, w.Depth, tr, wg, roleCoord, i, &next)
	}
	eng, err := shardrun.New(shardrun.Config{
		N: w.N, K: w.K, Seed: seed,
		Tree: shardrun.Tree{Branch: w.Branch, Depth: w.Depth},
	}, links)
	if err != nil {
		wg.Wait()
		return nil, err
	}
	return &treeEngine{e: eng, wg: wg}, nil
}

// tracedSubtree mirrors shardrun.LoopbackSubtree with every pipe end
// interposed; upRole names the parent's end of the new link.
func tracedSubtree(branch, depth int, tr *tracer, wg *sync.WaitGroup, upRole string, index int, next *int) transport.Link {
	parentEnd, serveEnd := transport.Pipe()
	id := *next
	*next++
	if depth <= 1 {
		serve(wg, tr.wrapLink(serveEnd, roleAgent, id), shardrun.ServeShard)
		return tr.wrapLink(parentEnd, upRole, index)
	}
	children := make([]transport.Link, branch)
	for i := range children {
		children[i] = tracedSubtree(branch, depth-1, tr, wg, roleRelay, id*branch+i, next)
	}
	serve(wg, tr.wrapLink(serveEnd, roleInterior, id), func(l transport.Link) error {
		return shardrun.ServeInterior(l, children)
	})
	return tr.wrapLink(parentEnd, upRole, index)
}

func (t *treeEngine) Observe(vals []int64) ([]int, error) {
	top := t.e.Observe(vals)
	return top, t.e.Err()
}

func (t *treeEngine) ObserveDelta(ids []int, vals []int64) ([]int, error) {
	top := t.e.ObserveDelta(ids, vals)
	return top, t.e.Err()
}

func (t *treeEngine) Drain(context.Context) error { return nil }
func (t *treeEngine) AppendTop(dst []int) []int   { return t.e.AppendTop(dst) }

func (t *treeEngine) Stats() topk.Stats {
	s := t.e.Stats()
	return topk.Stats{Steps: s.Steps, ViolationSteps: s.ViolationSteps, Resets: s.Resets, TopChanges: s.TopChanges}
}

func (t *treeEngine) Counts() topk.Counts {
	c := t.e.Counts()
	return topk.Counts{Up: c.Up, Down: c.Down, Broadcast: c.Bcast}
}

func (t *treeEngine) Bytes() topk.Bytes {
	b := t.e.Bytes()
	return topk.Bytes{Up: b.Up, Down: b.Down, Broadcast: b.Bcast}
}

func (t *treeEngine) TransportStats() topk.TransportStats {
	s := t.e.TransportStats()
	return topk.TransportStats{SentFrames: s.SentFrames, SentBytes: s.SentBytes, RecvFrames: s.RecvFrames, RecvBytes: s.RecvBytes}
}

// Close shuts the root down and waits for every interior and agent.
func (t *treeEngine) Close() {
	t.e.Close()
	t.wg.Wait()
}
