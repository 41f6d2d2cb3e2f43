package topk_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netrun"
	"repro/internal/transport"
	"repro/topk"
)

// faultyTransport is a Transport whose links the test pre-wrapped with
// fault plans, standing in for an external caller's own substrate.
type faultyTransport struct{ links []topk.Link }

func (f *faultyTransport) Links() []topk.Link { return f.links }
func (f *faultyTransport) Close() error       { return nil }

// churn fills vals with large fast-moving values that force
// communication on every peer every step.
func churn(s int, vals []int64) {
	for i := range vals {
		vals[i] = int64((s*31+i*17)%1000) * 50
	}
}

// TestHealthSurface pins the zero-value contract of Health across the
// engines: in-process monitors have no links to lose, networked and
// sharded monitors list their live peer ranges.
func TestHealthSurface(t *testing.T) {
	const n, k = 8, 2
	seq, err := topk.New(topk.Config{Nodes: n, K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h := seq.Health(); h.Terminal != nil || h.Degraded || h.Failures != 0 || len(h.Peers) != 0 {
		t.Fatalf("sequential monitor unhealthy at birth: %+v", h)
	}
	if err := seq.Join(netrun.LoopbackLink()); err == nil {
		t.Fatal("Join on a sequential monitor succeeded")
	}

	sh, err := topk.New(topk.Config{Nodes: n, K: k, Seed: 1, Tree: topk.Tree{Branch: 2, Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if h := sh.Health(); len(h.Peers) != 2 || h.Peers[0].Lo != 0 || h.Peers[1].Hi != n {
		t.Fatalf("sharded monitor peer ranges off: %+v", h.Peers)
	}

	net, err := topk.New(topk.Config{Nodes: n, K: k, Seed: 1, Transport: topk.Loopback(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if h := net.Health(); len(h.Peers) != 3 {
		t.Fatalf("networked monitor peer ranges off: %+v", h.Peers)
	}
}

// TestFailoverThroughPublicAPI runs the whole failure story over the
// public surface: a peer link dies mid-run, Observe keeps returning
// reports without error, Health degrades then recovers, the Redial
// factory supplies the replacement, and OnEvent sees the lifecycle.
func TestFailoverThroughPublicAPI(t *testing.T) {
	const n, k = 12, 3
	links := []topk.Link{
		netrun.LoopbackLink(),
		netrun.LoopbackLink(),
		transport.NewFaulty(netrun.LoopbackLink(), transport.FaultPlan{KillAt: 60}),
	}
	var events []topk.Event
	mon, err := topk.New(topk.Config{
		Nodes: n, K: k, Seed: 7,
		Transport: &faultyTransport{links: links},
		Redial:    func() (topk.Link, error) { return topk.Link(netrun.LoopbackLink()), nil },
		OnEvent:   func(ev topk.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	vals := make([]int64, n)
	sawDegraded := false
	for s := 0; s < 60; s++ {
		churn(s, vals)
		if _, err := mon.Observe(vals); err != nil {
			t.Fatalf("step %d: Observe errored through a recoverable failure: %v", s, err)
		}
		if mon.Health().Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("the scripted kill never degraded health")
	}
	h := mon.Health()
	if h.Terminal != nil || h.Degraded {
		t.Fatalf("monitor did not recover: %+v", h)
	}
	if h.Failures == 0 || h.Recoveries == 0 {
		t.Fatalf("health counters off after recovery: %+v", h)
	}
	if len(h.Peers) != 3 {
		t.Fatalf("redial recovery changed the cohort size: %+v", h.Peers)
	}
	wantKinds := map[topk.EventKind]bool{
		topk.EventPeerDown: false, topk.EventPeerReplaced: false, topk.EventRecovered: false,
	}
	for _, ev := range events {
		if _, ok := wantKinds[ev.Kind]; ok {
			wantKinds[ev.Kind] = true
		}
		if ev.Kind.String() == "" {
			t.Fatalf("event kind %d has no name", ev.Kind)
		}
	}
	for kind, seen := range wantKinds {
		if !seen {
			t.Errorf("event %v never delivered (got %v)", kind, events)
		}
	}
}

// TestJoinThroughPublicAPI attaches a late joiner running ServeNodes, as
// Join documents: the networked monitor takes it and keeps going, a tree
// monitor — here the star of two shards — refuses it and keeps its layout.
func TestJoinThroughPublicAPI(t *testing.T) {
	const n, k = 12, 3
	cases := []struct {
		name   string
		cfg    topk.Config
		joined bool
	}{
		{"networked", topk.Config{Nodes: n, K: k, Seed: 5, Transport: topk.Loopback(2)}, true},
		{"sharded", topk.Config{Nodes: n, K: k, Seed: 5, Tree: topk.Tree{Branch: 2, Depth: 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon, err := topk.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			vals := make([]int64, n)
			for s := 0; s < 10; s++ {
				churn(s, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatal(err)
				}
			}
			err = mon.Join(topk.Link(netrun.LoopbackLink()))
			if (err == nil) != tc.joined {
				t.Fatalf("Join: %v, want joined=%v", err, tc.joined)
			}
			want := 2
			if tc.joined {
				want = 3
			}
			if h := mon.Health(); len(h.Peers) != want {
				t.Fatalf("Join left %d peers, want %d: %+v", len(h.Peers), want, h.Peers)
			}
			for s := 10; s < 25; s++ {
				churn(s, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatalf("step %d after Join: %v", s, err)
				}
			}
			if h := mon.Health(); h.Failures != 0 || h.Degraded || h.Terminal != nil {
				t.Fatalf("Join degraded health: %+v", h)
			}
		})
	}
}

// TestJoinRefusedByTreeMonitor is the regression for a tree monitor handed
// a peer it cannot speak to. A Redial beside Tree is refused at New: it
// used to hand the root ServeNodes links, which answer a delegated
// execution with the wrong frame until the monitor went terminal. And Join
// on a tree monitor, star or deeper, is refused without touching the
// layout: it used to cost the monitor a failure and a loopback subtree.
func TestJoinRefusedByTreeMonitor(t *testing.T) {
	const n, k = 12, 3
	_, err := topk.New(topk.Config{
		Nodes: n, K: k, Seed: 5, Tree: topk.Tree{Branch: 2, Depth: 1},
		Redial: func() (topk.Link, error) { return topk.Loopback(1).Links()[0], nil },
	})
	var ce *topk.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Redial" {
		t.Fatalf("Redial beside Tree: %v, want a ConfigError naming Redial", err)
	}

	for _, tree := range []topk.Tree{{Branch: 2, Depth: 1}, {Branch: 2, Depth: 2}} {
		mon, err := topk.New(topk.Config{Nodes: n, K: k, Seed: 5, Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, n)
		for s := 0; s < 10; s++ {
			churn(s, vals)
			if _, err := mon.Observe(vals); err != nil {
				t.Fatal(err)
			}
		}
		before := mon.Health()
		if err := mon.Join(topk.Loopback(1).Links()[0]); err == nil {
			t.Errorf("%+v: Join of a ServeNodes link succeeded", tree)
		}
		if h := mon.Health(); !reflect.DeepEqual(h, before) {
			t.Errorf("%+v: a refused Join moved Health from %+v to %+v", tree, before, h)
		}
		for s := 10; s < 25; s++ {
			churn(s, vals)
			got, err := mon.Observe(vals)
			if want, _ := topk.Oracle(vals, k); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%+v step %d after the refused Join: %v, %v; want %v", tree, s, got, err, want)
			}
		}
		if h := mon.Health(); h.Failures != 0 || h.Degraded || h.Terminal != nil {
			t.Errorf("%+v: health after the refused Join: %+v", tree, h)
		}
		mon.Close()
	}
}

// TestJoinConcurrentWithAsyncIngest pins that Join takes the same engine
// lock as every other engine-touching call in asynchronous mode: joiners
// attach while a producer keeps the ingest worker mid-step, and after the
// barrier the report is exact. Run under -race (the Chaos CI step): an
// unlocked Join races the worker on the engine's peer set and buffers.
func TestJoinConcurrentWithAsyncIngest(t *testing.T) {
	const n, k, steps, joins = 32, 4, 400, 3
	mon, err := topk.New(topk.Config{
		Nodes: n, K: k, Seed: 9,
		Transport: topk.Loopback(2),
		Ingest:    topk.Ingest{QueueDepth: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	final := make([]int64, n)
	started := make(chan struct{})
	produced := make(chan error, 1)
	go func() {
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			churn(s, vals)
			if _, err := mon.Observe(vals); err != nil {
				produced <- err
				return
			}
			if s == 0 {
				close(started)
			}
		}
		copy(final, vals)
		produced <- nil
	}()
	<-started
	for j := 0; j < joins; j++ {
		if err := mon.Join(netrun.LoopbackLink()); err != nil {
			t.Fatalf("join %d: %v", j, err)
		}
	}
	if err := <-produced; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if err := mon.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want, err := topk.Oracle(final, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Top(); !slices.Equal(got, want) {
		t.Fatalf("report after concurrent joins: got %v, want oracle %v", got, want)
	}
	if h := mon.Health(); len(h.Peers) != 2+joins || h.Terminal != nil {
		t.Fatalf("joins left the monitor at %+v, want %d healthy peers", h, 2+joins)
	}
}

// TestEngineCapabilityMatrix pins, for each of the five engine shapes,
// what the optional capabilities report: the link-backed engines answer
// them, the in-process engine — inline (seq) and at 2¹⁶ nodes (conc) —
// returns the documented zero value or error,
// only the networked monitor takes a joiner, every shape checkpoints, and
// a closed monitor of any shape fails its steps and barriers and reads as
// zero.
func TestEngineCapabilityMatrix(t *testing.T) {
	const n, k = 12, 3
	shapes := []struct {
		name     string
		cfg      topk.Config
		peers    int  // live peer links; 0 for the in-process engines
		overhead bool // surfaces the coordination-overhead ledger
		levels   int  // TreeStats levels
		joins    bool // Join takes a ServeNodes link
	}{
		{"seq", topk.Config{}, 0, false, 0, false},
		{"conc", topk.Config{Nodes: 1 << 16}, 0, false, 0, false}, // on the shard pool at GOMAXPROCS ≥ 2
		{"net", topk.Config{Transport: topk.Loopback(2)}, 2, false, 0, true},
		{"shards", topk.Config{Tree: topk.Tree{Branch: 2, Depth: 1}}, 2, true, 1, false},
		{"tree", topk.Config{Tree: topk.Tree{Branch: 2, Depth: 2}}, 2, true, 2, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			cfg.Nodes = max(cfg.Nodes, n)
			cfg.K, cfg.Seed = k, 3
			cfg.Checkpoint.Store = topk.MemCheckpoints()
			mon, err := topk.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			vals := make([]int64, cfg.Nodes)
			for s := 0; s < 10; s++ {
				churn(s, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatal(err)
				}
			}

			if h := mon.Health(); len(h.Peers) != sh.peers || h.Terminal != nil || h.Degraded || h.Failures != 0 {
				t.Errorf("Health = %+v, want %d healthy peers", h, sh.peers)
			}
			if ts := mon.TransportStats(); (ts.SentFrames > 0) != (sh.peers > 0) || (ts.RecvFrames > 0) != (sh.peers > 0) {
				t.Errorf("TransportStats = %+v with %d peers", ts, sh.peers)
			}
			if oc, ob := mon.Overhead(); (oc.Down > 0) != sh.overhead || (ob.Up > 0) != sh.overhead || oc.Broadcast != 0 {
				t.Errorf("Overhead = %+v / %+v, want surfaced=%v", oc, ob, sh.overhead)
			}
			if ts, err := mon.TreeStats(); err != nil || len(ts.Levels) != sh.levels {
				t.Errorf("TreeStats = %+v, %v; want %d levels", ts, err, sh.levels)
			}
			err = mon.Join(netrun.LoopbackLink())
			want := sh.peers
			if sh.joins {
				want++
			}
			if (err == nil) != sh.joins || len(mon.Health().Peers) != want {
				t.Errorf("Join: %v, peers %+v; want joined=%v", err, mon.Health().Peers, sh.joins)
			}
			if gen, err := mon.Checkpoint(context.Background()); err != nil || gen != 1 {
				t.Errorf("Checkpoint = %d, %v; want generation 1", gen, err)
			}
			churn(10, vals)
			got, err := mon.Observe(vals)
			if want, _ := topk.Oracle(vals, k); err != nil || !slices.Equal(got, want) {
				t.Errorf("step after the capability calls: got %v, %v; want %v", got, err, want)
			}

			mon.Close()
			mon.Close() // idempotent
			if _, err := mon.Observe(vals); err == nil {
				t.Error("Observe after Close succeeded")
			}
			if _, err := mon.ObserveDelta(nil, nil); err == nil {
				t.Error("ObserveDelta after Close succeeded")
			}
			if err := mon.Drain(context.Background()); err == nil {
				t.Error("Drain after Close succeeded")
			}
			if _, err := mon.Checkpoint(context.Background()); err == nil {
				t.Error("Checkpoint after Close succeeded")
			}
			if err := mon.Join(netrun.LoopbackLink()); err == nil {
				t.Error("Join after Close succeeded")
			}
			if top := mon.Top(); len(top) != 0 {
				t.Errorf("Top after Close = %v", top)
			}
			if c, b, s := mon.Counts(), mon.Bytes(), mon.Stats(); c != (topk.Counts{}) || b != (topk.Bytes{}) || s != (topk.Stats{}) {
				t.Errorf("ledgers after Close = %+v / %+v / %+v, want zero", c, b, s)
			}
			if h := mon.Health(); len(h.Peers) != 0 || h.Terminal != nil || h.Degraded || h.Failures != 0 {
				t.Errorf("Health after Close = %+v, want zero", h)
			}
			if ts := mon.TransportStats(); ts != (topk.TransportStats{}) {
				t.Errorf("TransportStats after Close = %+v, want zero", ts)
			}
			if oc, ob := mon.Overhead(); oc != (topk.Counts{}) || ob != (topk.Bytes{}) {
				t.Errorf("Overhead after Close = %+v / %+v, want zero", oc, ob)
			}
			if ts, err := mon.TreeStats(); err != nil || len(ts.Levels) != 0 {
				t.Errorf("TreeStats after Close = %+v, %v; want zero", ts, err)
			}
		})
	}
}
