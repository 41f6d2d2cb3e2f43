package topk_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/transport"
	"repro/topk"
)

// TestTransportEngineEquivalence drives the public networked engine (over
// an in-process loopback transport) against the default sequential engine
// and requires identical reports, counts and charged bytes.
func TestTransportEngineEquivalence(t *testing.T) {
	const n, k, seed, steps = 12, 3, 77, 150
	seq, err := topk.New(topk.Config{Nodes: n, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	net, err := topk.New(topk.Config{Nodes: n, K: k, Seed: seed, Transport: topk.Loopback(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		for i := range vals {
			// A deterministic little churn pattern with rank swaps.
			vals[i] = int64((i*37+s*13)%200) * int64(1+i%3)
		}
		a, err := seq.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		b, err := net.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: reports differ: %v vs %v", s, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: reports differ: %v vs %v", s, a, b)
			}
		}
	}
	if ca, cb := seq.Counts(), net.Counts(); ca != cb {
		t.Fatalf("counts differ: seq=%+v net=%+v", ca, cb)
	}
	if ba, bb := seq.Bytes(), net.Bytes(); ba != bb || ba.Total() == 0 {
		t.Fatalf("bytes differ or empty: seq=%+v net=%+v", ba, bb)
	}
	if pa, pb := seq.BytesByPhase(), net.BytesByPhase(); pa != pb {
		t.Fatalf("phase bytes differ: seq=%+v net=%+v", pa, pb)
	}
	if ts := net.TransportStats(); ts.SentFrames == 0 || ts.RecvBytes == 0 {
		t.Fatalf("transport stats empty: %+v", ts)
	}
	if ts := seq.TransportStats(); ts != (topk.TransportStats{}) {
		t.Fatalf("sequential engine reported transport traffic: %+v", ts)
	}
}

func TestTransportConfigValidation(t *testing.T) {
	// More links than nodes cannot all host a node.
	tr3 := topk.Loopback(3)
	defer tr3.Close()
	if _, err := topk.New(topk.Config{Nodes: 2, K: 1, Transport: tr3}); err == nil {
		t.Fatal("3 peers for 2 nodes accepted")
	}
}

func TestTransportMonitorClose(t *testing.T) {
	net, err := topk.New(topk.Config{Nodes: 6, K: 2, Seed: 5, Transport: topk.Loopback(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Observe([]int64{6, 5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close() // idempotent
	if _, err := net.Observe([]int64{6, 5, 4, 3, 2, 1}); err == nil {
		t.Fatal("observe after close succeeded")
	}
}

// TestServeNodesHostsATransport builds a Transport by hand — pipes whose far
// ends run ServeNodes, as a process of its own would over TCP — and holds
// the monitor over it to the sequential one: reports, counts and every
// behavioural counter, the handler calls among them. Closing the monitor
// ends each serve loop with nil.
func TestServeNodesHostsATransport(t *testing.T) {
	const n, k, seed, peers = 12, 3, 77, 3
	tr := &faultyTransport{}
	served := make(chan error, peers)
	for range peers {
		near, far := transport.Pipe()
		tr.links = append(tr.links, near)
		go func() { served <- topk.ServeNodes(far) }()
	}
	net, err := topk.New(topk.Config{Nodes: n, K: k, Seed: seed, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := topk.New(topk.Config{Nodes: n, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, n)
	for s := 0; s < 150; s++ {
		churn(s, vals)
		a, err := seq.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		b, err := net.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("step %d: reports differ: %v vs %v", s, a, b)
		}
	}
	if ca, cb := seq.Counts(), net.Counts(); ca != cb {
		t.Fatalf("counts differ: seq=%+v net=%+v", ca, cb)
	}
	if sa, sb := seq.Stats(), net.Stats(); sa != sb || sa.HandlerCalls == 0 || sa.HandlerCalls > sa.ViolationSteps {
		t.Fatalf("stats differ, or count no handler call: seq=%+v net=%+v", sa, sb)
	}
	net.Close()
	for range peers {
		if err := <-served; err != nil {
			t.Errorf("a serve loop ended with %v after a clean shutdown", err)
		}
	}
}

// askedTransport fails the test when a constructor asks for its links, and
// counts the Close that ownership of it requires.
type askedTransport struct {
	t      *testing.T
	closed int
}

func (a *askedTransport) Links() []topk.Link {
	a.t.Error("Links asked of a Transport whose Config was going to be refused")
	return nil
}

func (a *askedTransport) Close() error { a.closed++; return nil }

// TestTransportLinksAskedLast pins what lets a Transport put off listening
// and waiting for its peers until Links is called: a configuration that is
// refused for any other field is refused before the links are asked for,
// and the Transport is closed all the same.
func TestTransportLinksAskedLast(t *testing.T) {
	base := topk.Config{Nodes: 8, K: 2}
	for name, mutate := range map[string]func(*topk.Config){
		"Nodes":      func(c *topk.Config) { c.Nodes = 0 },
		"K":          func(c *topk.Config) { c.K = 9 },
		"Epsilon":    func(c *topk.Config) { c.Epsilon = 1 },
		"Tree":       func(c *topk.Config) { c.Tree = topk.Tree{Branch: 2, Depth: 2} },
		"Checkpoint": func(c *topk.Config) { c.Checkpoint.Every = 5 },
		"Ingest":     func(c *topk.Config) { c.Ingest.QueueDepth = -1 },
	} {
		for ctor, build := range map[string]func(topk.Config) error{
			"New":        func(c topk.Config) error { _, err := topk.New(c); return err },
			"NewOrdered": func(c topk.Config) error { _, err := topk.NewOrdered(c); return err },
			"Restore":    func(c topk.Config) error { _, err := topk.Restore(topk.MemCheckpoints(), c); return err },
		} {
			cfg := base
			mutate(&cfg)
			tr := &askedTransport{t: t}
			cfg.Transport = tr
			var ce *topk.ConfigError
			if err := build(cfg); !errors.As(err, &ce) {
				t.Errorf("%s with a bad %s: %v, want a ConfigError", ctor, name, err)
			}
			if tr.closed != 1 {
				t.Errorf("%s with a bad %s closed the Transport %d times", ctor, name, tr.closed)
			}
		}
	}
}
