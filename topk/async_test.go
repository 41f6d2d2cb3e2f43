package topk

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func drainT(t *testing.T, m *Monitor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestAsyncDrainEquivalence pins the tentpole's contract at the public
// boundary, per engine: an asynchronous monitor fed observe-then-Drain
// must be bit-identical — reports, message counts, charged bytes,
// per-phase breakdowns, stats — to a synchronous monitor of the same
// configuration fed the same trace, on both the dense and delta paths.
func TestAsyncDrainEquivalence(t *testing.T) {
	const n, k, steps = 16, 3, 120
	base := map[string]Config{
		"seq":   {Nodes: n, K: k, Seed: 3},
		"conc":  {Nodes: n, K: k, Seed: 3, Concurrent: true},
		"net":   {Nodes: n, K: k, Seed: 3, Transport: Loopback(2)},
		"shard": {Nodes: n, K: k, Seed: 3, Shards: 2},
	}
	build := func(t *testing.T, name string, async bool) *Monitor {
		cfg := base[name]
		if name == "net" {
			cfg.Transport = Loopback(2) // a Transport is owned by one monitor
		}
		if async {
			cfg.Ingest = Ingest{QueueDepth: n}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s async=%v): %v", name, async, err)
		}
		t.Cleanup(m.Close)
		return m
	}
	for name := range base {
		for _, dense := range []bool{true, false} {
			sub := name + "/delta"
			if dense {
				sub = name + "/dense"
			}
			t.Run(sub, func(t *testing.T) {
				async := build(t, name, true)
				sync := build(t, name, false)
				src := stream.NewSparseWalk(stream.SparseWalkConfig{
					N: n, Changed: 3, MaxStep: 1 << 11, Lo: 1 << 18, Hi: 1 << 24, Seed: 6,
				})
				ids := make([]int, n)
				vals := make([]int64, n)
				full := make([]int64, n)
				for s := 0; s < steps; s++ {
					c := src.StepDelta(ids, vals)
					for j := 0; j < c; j++ {
						full[ids[j]] = vals[j]
					}
					var want []int
					var err error
					if dense {
						_, err = async.Observe(full)
						if err == nil {
							want, err = sync.Observe(full)
						}
					} else {
						_, err = async.ObserveDelta(ids[:c], vals[:c])
						if err == nil {
							want, err = sync.ObserveDelta(ids[:c], vals[:c])
						}
					}
					if err != nil {
						t.Fatalf("step %d: %v", s, err)
					}
					drainT(t, async)
					if got := async.Top(); !equalIDs(got, want) {
						t.Fatalf("step %d: drained report %v != synchronous %v", s, got, want)
					}
				}
				if g, w := async.Counts(), sync.Counts(); g != w {
					t.Fatalf("counts diverged: async %+v sync %+v", g, w)
				}
				if g, w := async.Bytes(), sync.Bytes(); g != w {
					t.Fatalf("bytes diverged: async %+v sync %+v", g, w)
				}
				if g, w := async.Phases(), sync.Phases(); g != w {
					t.Fatalf("phase counts diverged: async %+v sync %+v", g, w)
				}
				if g, w := async.BytesByPhase(), sync.BytesByPhase(); g != w {
					t.Fatalf("phase bytes diverged: async %+v sync %+v", g, w)
				}
				if g, w := async.Stats(), sync.Stats(); g != w {
					t.Fatalf("stats diverged: async %+v sync %+v", g, w)
				}
				st := async.IngestStats()
				if st.Batches != steps {
					t.Fatalf("drain-per-call run executed %d batches for %d calls", st.Batches, steps)
				}
			})
		}
	}
}

// TestAsyncObserveReturnsNilReport pins the async-mode call shape: a
// staged observation returns no report (the protocol step has not run),
// and Top after a Drain reflects it.
func TestAsyncObserveReturnsNilReport(t *testing.T) {
	m, err := New(Config{Nodes: 4, K: 2, Seed: 1, Ingest: Ingest{QueueDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rep, err := m.Observe([]int64{4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("async Observe returned a report: %v", rep)
	}
	drainT(t, m)
	if got := m.Top(); !equalIDs(got, []int{0, 1}) {
		t.Fatalf("Top after Drain = %v, want [0 1]", got)
	}
	// Validation still happens before staging.
	if _, err := m.Observe([]int64{1, 2}); err == nil {
		t.Fatal("wrong-length observation accepted in async mode")
	}
	if _, err := m.ObserveDelta([]int{9}, []int64{1}); err == nil {
		t.Fatal("out-of-range id accepted in async mode")
	}
}

// TestAsyncOverflowError pins the Error policy at the public boundary:
// a full queue rejects the whole call with ErrQueueFull (errors.Is), and
// the monitor stays usable afterwards.
func TestAsyncOverflowError(t *testing.T) {
	const n = 8
	m, err := New(Config{Nodes: n, K: 2, Seed: 1,
		Ingest: Ingest{QueueDepth: 1, Overflow: OverflowError}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Race-free overflow: a single delta call with more fresh nodes than
	// the queue admits must bounce atomically no matter how fast the
	// worker drains.
	_, err = m.ObserveDelta([]int{0, 1}, []int64{1, 2})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflowing call returned %v, want ErrQueueFull", err)
	}
	// The monitor remains usable: a fitting call succeeds and drains.
	if _, err := m.ObserveDelta([]int{5}, []int64{50}); err != nil {
		t.Fatalf("monitor unusable after a rejected call: %v", err)
	}
	drainT(t, m)
	if st := m.IngestStats(); st.Enqueued != 1 {
		t.Fatalf("rejected call leaked updates: %+v", st)
	}
}

// TestAsyncDropOldestCounts pins the lossy policy through IngestStats:
// overload drops the oldest staged updates, and the monitor stays
// consistent after a Drain.
func TestAsyncDropOldestCounts(t *testing.T) {
	const n = 8
	m, err := New(Config{Nodes: n, K: 2, Seed: 1,
		Ingest: Ingest{QueueDepth: 1, Overflow: OverflowDropOldest}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// One call, distinct nodes: with depth 1 every earlier update is
	// evicted as the next lands, deterministically.
	if _, err := m.ObserveDelta([]int{0, 1, 2}, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	drainT(t, m)
	st := m.IngestStats()
	if st.Dropped == 0 {
		t.Fatalf("DropOldest never dropped: %+v", st)
	}
	if st.Enqueued != 3 {
		t.Fatalf("Enqueued = %d, want 3: %+v", st.Enqueued, st)
	}
}

// TestAsyncClosedMonitor pins the closed-monitor vocabulary in async
// mode: observation calls and Drain fail with a closed error, never
// panic or hang.
func TestAsyncClosedMonitor(t *testing.T) {
	m, err := New(Config{Nodes: 4, K: 2, Seed: 1, Ingest: Ingest{QueueDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Observe([]int64{1, 2, 3, 4}); err == nil {
		t.Fatal("Observe on a closed async monitor succeeded")
	}
	if err := m.Drain(context.Background()); err == nil {
		t.Fatal("Drain on a closed async monitor succeeded")
	}
	m.Close() // idempotent
}

// TestAsyncDrainSyncMonitor: on a synchronous monitor Drain is a no-op
// barrier (nothing is ever in flight).
func TestAsyncDrainSyncMonitor(t *testing.T) {
	m, err := New(Config{Nodes: 4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("Drain on a synchronous monitor: %v", err)
	}
	if st := m.IngestStats(); st != (IngestStats{}) {
		t.Fatalf("synchronous monitor reports ingestion activity: %+v", st)
	}
}

// closeCountingTransport records whether New released it on rejection.
type closeCountingTransport struct {
	links  []Link
	closed int
}

func (c *closeCountingTransport) Links() []Link { return c.links }
func (c *closeCountingTransport) Close() error  { c.closed++; return nil }

// TestConfigErrorTyped pins the constructor-error contract introduced
// with the async surface: every rejected configuration surfaces as a
// *ConfigError naming the offending field, retrievable with errors.As,
// and a Transport the constructor took ownership of is closed first.
func TestConfigErrorTyped(t *testing.T) {
	cases := []struct {
		field string
		cfg   Config
	}{
		{"Nodes", Config{Nodes: 0, K: 1}},
		{"Nodes", Config{Nodes: 1 << 31, K: 1}}, // engines index nodes in 31 bits
		{"K", Config{Nodes: 4, K: 5}},
		{"Epsilon", Config{Nodes: 4, K: 2, Epsilon: 1.5}},
		{"Shards", Config{Nodes: 4, K: 2, Shards: -1}},
		{"Ingest.QueueDepth", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: -1}}},
		{"Ingest.Overflow", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 2, Overflow: OverflowError + 1}}},
		{"Ingest.Overflow", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 0, Overflow: OverflowError}}},
		{"Tree", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 1, Depth: 2}}},
		{"Tree", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 2, Depth: 2}}}, // valid shape, but Transport is set below
		{"Checkpoint.Every", Config{Nodes: 4, K: 2, Checkpoint: Checkpoint{Every: -1}}},
		{"Checkpoint.Store", Config{Nodes: 4, K: 2, Checkpoint: Checkpoint{Every: 8}}},
	}
	for _, tc := range cases {
		tr := &closeCountingTransport{}
		tc.cfg.Transport = tr
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("config %+v accepted", tc.cfg)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %+v: error %v is not a *ConfigError", tc.cfg, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("config %+v: Field = %q, want %q (err: %v)", tc.cfg, ce.Field, tc.field, err)
		}
		if tr.closed == 0 {
			t.Errorf("config %+v: transport not closed on rejection", tc.cfg)
		}
	}
}

// TestOrderedConfigErrorTyped extends the typed-error contract to
// NewOrdered — most importantly the Epsilon rejection, which used to be
// a bare formatted error.
func TestOrderedConfigErrorTyped(t *testing.T) {
	cases := []struct {
		field string
		cfg   Config
	}{
		{"Nodes", Config{Nodes: -2, K: 1}},
		{"Nodes", Config{Nodes: 1 << 31, K: 1}}, // used to panic inside core.New
		{"K", Config{Nodes: 4, K: 0}},
		{"Epsilon", Config{Nodes: 4, K: 2, Epsilon: 0.1}},
		{"Shards", Config{Nodes: 4, K: 2, Shards: 2}},
		{"Ingest", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 8}}},
		{"Tree", Config{Nodes: 8, K: 2, Tree: Tree{Branch: 2, Depth: 1}}},
		{"Checkpoint", Config{Nodes: 4, K: 2, Checkpoint: Checkpoint{Store: MemCheckpoints()}}},
	}
	for _, tc := range cases {
		_, err := NewOrdered(tc.cfg)
		if err == nil {
			t.Errorf("ordered config %+v accepted", tc.cfg)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("ordered config %+v: error %v is not a *ConfigError", tc.cfg, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("ordered config %+v: Field = %q, want %q", tc.cfg, ce.Field, tc.field)
		}
		// The Epsilon rejection is a carried ROADMAP item, not a bug:
		// the error must point readers at the follow-on.
		if tc.field == "Epsilon" && !strings.Contains(err.Error(), "ROADMAP.md") {
			t.Errorf("ordered Epsilon rejection %q does not reference ROADMAP.md", err)
		}
	}
	// The Transport rejection also closes the transport it owns.
	tr := &closeCountingTransport{}
	_, err := NewOrdered(Config{Nodes: 4, K: 2, Transport: tr})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Transport" {
		t.Errorf("ordered Transport rejection: %v", err)
	}
	if tr.closed == 0 {
		t.Error("ordered Transport rejection did not close the transport")
	}
}
