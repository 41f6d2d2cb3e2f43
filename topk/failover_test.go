package topk_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/netrun"
	"repro/internal/shardrun"
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

	sh, err := topk.New(topk.Config{Nodes: n, K: k, Seed: 1, Shards: 2})
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
		Transport:    &faultyTransport{links: links},
		Redial:       func() (topk.Link, error) { return topk.Link(netrun.LoopbackLink()), nil },
		RetryBackoff: time.Millisecond,
		OnEvent:      func(ev topk.Event) { events = append(events, ev) },
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

// TestJoinThroughPublicAPI attaches late joiners to both engines that
// accept them and verifies membership and continued operation.
func TestJoinThroughPublicAPI(t *testing.T) {
	const n, k = 12, 3
	cases := []struct {
		name string
		cfg  topk.Config
		link func() topk.Link
	}{
		{"networked", topk.Config{Nodes: n, K: k, Seed: 5, Transport: topk.Loopback(2)},
			func() topk.Link { return topk.Link(netrun.LoopbackLink()) }},
		{"sharded", topk.Config{Nodes: n, K: k, Seed: 5, Shards: 2},
			func() topk.Link { return topk.Link(shardrun.LoopbackLink()) }},
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
			if err := mon.Join(tc.link()); err != nil {
				t.Fatalf("Join: %v", err)
			}
			if h := mon.Health(); len(h.Peers) != 3 {
				t.Fatalf("join left %d peers, want 3: %+v", len(h.Peers), h.Peers)
			}
			for s := 10; s < 25; s++ {
				churn(s, vals)
				if _, err := mon.Observe(vals); err != nil {
					t.Fatalf("step %d after join: %v", s, err)
				}
			}
			if h := mon.Health(); h.Failures != 0 || h.Degraded || h.Terminal != nil {
				t.Fatalf("join degraded health: %+v", h)
			}
		})
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
// them, the in-process engines return the documented zero value or error,
// every shape checkpoints, and a closed monitor of any shape fails its
// steps and barriers and reads as zero.
func TestEngineCapabilityMatrix(t *testing.T) {
	const n, k = 12, 3
	shapes := []struct {
		name     string
		cfg      topk.Config
		peers    int                   // live peer links; 0 for the in-process engines
		overhead bool                  // surfaces the coordination-overhead ledger
		levels   int                   // TreeStats levels
		joiner   func() transport.Link // a serve loop this shape's Join accepts
	}{
		{"seq", topk.Config{}, 0, false, 0, netrun.LoopbackLink},
		{"conc", topk.Config{Concurrent: true}, 0, false, 0, netrun.LoopbackLink},
		{"net", topk.Config{Transport: topk.Loopback(2)}, 2, false, 0, netrun.LoopbackLink},
		{"shards", topk.Config{Shards: 2}, 2, true, 1, shardrun.LoopbackLink},
		{"tree", topk.Config{Tree: topk.Tree{Branch: 2, Depth: 2}}, 2, true, 2, shardrun.LoopbackLink},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			cfg.Nodes, cfg.K, cfg.Seed = n, k, 3
			cfg.Checkpoint.Store = topk.MemCheckpoints()
			mon, err := topk.New(cfg)
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
			err = mon.Join(sh.joiner())
			if sh.peers == 0 && err == nil {
				t.Error("Join on an in-process engine succeeded")
			}
			if sh.peers > 0 && (err != nil || len(mon.Health().Peers) != sh.peers+1) {
				t.Errorf("Join: %v, peers %+v", err, mon.Health().Peers)
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
			if err := mon.Join(sh.joiner()); err == nil {
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
