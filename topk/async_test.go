package topk

import (
	"context"
	"errors"
	"slices"
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
// The ordered-* monitors come from NewOrdered, and their rankings must
// match as well. The conc rows are the in-process monitor at poolNodes,
// whose first call and dense calls run on the shard pool.
func TestAsyncDrainEquivalence(t *testing.T) {
	const n, k, steps = 16, 3, 120
	base := map[string]Config{
		"seq":          {Nodes: n, K: k, Seed: 3},
		"conc":         {Nodes: poolNodes, K: k, Seed: 3},
		"net":          {Nodes: n, K: k, Seed: 3, Transport: Loopback(2)},
		"shard":        {Nodes: n, K: k, Seed: 3, Tree: star(2)},
		"ordered-seq":  {Nodes: n, K: k, Seed: 3},
		"ordered-conc": {Nodes: poolNodes, K: k, Seed: 3},
	}
	ordered := func(name string) bool { return strings.HasPrefix(name, "ordered-") }
	build := func(t *testing.T, name string, async bool) *Monitor {
		cfg := base[name]
		if name == "net" {
			cfg.Transport = Loopback(2) // a Transport is owned by one monitor
		}
		if async {
			cfg.Ingest = Ingest{QueueDepth: cfg.Nodes}
		}
		newMonitor := New
		if ordered(name) {
			newMonitor = NewOrdered
		}
		m, err := newMonitor(cfg)
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
				n := base[name].Nodes
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
					if got := async.Top(); !slices.Equal(got, want) {
						t.Fatalf("step %d: drained report %v != synchronous %v", s, got, want)
					}
					gotRank, wantRank := async.AppendRanking(nil), sync.AppendRanking(nil)
					if !slices.Equal(gotRank, wantRank) || ordered(name) != (len(wantRank) == k) {
						t.Fatalf("step %d: drained ranking %v, synchronous %v", s, gotRank, wantRank)
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
	if got := m.Top(); !slices.Equal(got, []int{0, 1}) {
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
		{"Ingest.QueueDepth", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: -1}}},
		{"Ingest.Overflow", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 2, Overflow: OverflowBlock + 1}}},
		{"Ingest.Overflow", Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 0, Overflow: OverflowBlock + 1}}},
		{"Tree", Config{Nodes: 16, K: 2, Tree: Tree{Branch: 0, Depth: 2}}},
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
		{"Ingest.Overflow", Config{Nodes: 4, K: 2, Ingest: Ingest{Overflow: OverflowBlock + 1}}},
		{"Redial", Config{Nodes: 4, K: 2, Redial: func() (Link, error) { return nil, nil }}},
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
	// Asynchronous ingestion is accepted.
	m, err := NewOrdered(Config{Nodes: 4, K: 2, Ingest: Ingest{QueueDepth: 8}})
	if err != nil {
		t.Fatalf("ordered config with Ingest.QueueDepth 8 refused: %v", err)
	}
	m.Close()
	// The Transport rejection also closes the transport it owns.
	tr := &closeCountingTransport{}
	_, err = NewOrdered(Config{Nodes: 4, K: 2, Transport: tr})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Transport" {
		t.Errorf("ordered Transport rejection: %v", err)
	}
	if tr.closed == 0 {
		t.Error("ordered Transport rejection did not close the transport")
	}
}

// TestAsyncOversizedCallIsOneStep pins that a call with more nodes than
// Ingest.QueueDepth is one protocol step under OverflowBlock, as it is on
// a synchronous monitor: the first ObserveDelta of every node through a
// depth-16 queue at n = 4096 (the async-seq-shallow set-up call) costs
// exactly what the synchronous twin's does — 102 messages, 1 107 bytes —
// and so does a dense Observe through the same queue over links and
// through a tree, frames included.
func TestAsyncOversizedCallIsOneStep(t *testing.T) {
	const n, k = 4096, 8
	src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Lo: 0, Hi: 1 << 40, MaxStep: 64, Changed: 8, Seed: 1})
	ids, vals := make([]int, n), make([]int64, n)
	if c := src.StepDelta(ids, vals); c != n {
		t.Fatalf("first step carries %d nodes, want %d", c, n)
	}
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		dense bool
		flat  bool // a single coordinator: the sequential engine's ledger
	}{
		{"seq/delta", func() Config { return Config{Nodes: n, K: k, Seed: 1} }, false, true},
		{"net/dense", func() Config { return Config{Nodes: n, K: k, Seed: 1, Transport: Loopback(2)} }, true, true},
		{"tree/dense", func() Config { return Config{Nodes: n, K: k, Seed: 1, Tree: Tree{Branch: 2, Depth: 2}} }, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mons [2]*Monitor
			for i := range mons {
				cfg := tc.cfg()
				if i == 0 {
					cfg.Ingest = Ingest{QueueDepth: 16}
				}
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(m.Close)
				if tc.dense {
					_, err = m.Observe(vals)
				} else {
					_, err = m.ObserveDelta(ids, vals)
				}
				if err != nil {
					t.Fatal(err)
				}
				drainT(t, m)
				mons[i] = m
			}
			async, sync := mons[0], mons[1]
			if st := async.Stats(); st.Steps != 1 || st != sync.Stats() {
				t.Fatalf("stats: async %+v, sync %+v — the call must be one step", st, sync.Stats())
			}
			if g, w := async.Counts(), sync.Counts(); g != w {
				t.Fatalf("counts: async %+v, sync %+v", g, w)
			}
			if g, w := async.Bytes(), sync.Bytes(); g != w {
				t.Fatalf("bytes: async %+v, sync %+v", g, w)
			}
			if g, w := async.Phases(), sync.Phases(); g != w {
				t.Fatalf("phases: async %+v, sync %+v", g, w)
			}
			if g, w := async.BytesByPhase(), sync.BytesByPhase(); g != w {
				t.Fatalf("phase bytes: async %+v, sync %+v", g, w)
			}
			if g, w := async.TransportStats(), sync.TransportStats(); g != w {
				t.Fatalf("transport: async %+v, sync %+v", g, w)
			}
			if !slices.Equal(async.Top(), sync.Top()) {
				t.Fatalf("report: async %v, sync %v", async.Top(), sync.Top())
			}
			if st := async.IngestStats(); st.Batches != 1 || st.MaxQueue > 16 {
				t.Fatalf("ingest stats %+v, want one batch and MaxQueue <= 16", st)
			}
			if c, b := async.Counts(), async.Bytes(); tc.flat && (c != Counts{Up: 88, Broadcast: 14} || b != Bytes{Up: 963, Broadcast: 144}) {
				t.Fatalf("first call cost %+v / %+v, want 102 messages and 1107 bytes", c, b)
			}
		})
	}
}
