package shardrun

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The full re-merge: the root strategy and the digest merge as they stood
// before the root kept heads (PR 20), verbatim but for the names and the
// nil that asks fanout.Engine.Round for every peer. Every delegated
// execution goes to every shard and every digest's charges are folded, so
// a FILTERRESET costs (k+1)·S local executions. It shares no code with
// execMerge and digest.fold and is the independent reference they are
// checked against.

type refDigest struct {
	wire.ShardDigest
	best order.Key // running best in the comparison domain
}

func (d *refDigest) merge(frame []byte, minimum bool, lo, hi int) error {
	c, err := wire.DecodeShardDigest(frame)
	if err != nil {
		return err
	}
	if c.Ups < 0 || c.UpBytes < 0 || c.Bcasts < 0 || c.BcastBytes < 0 {
		return fmt.Errorf("negative digest charges %+v", c)
	}
	if c.OK && (c.ID < lo || c.ID >= hi) {
		return fmt.Errorf("digest winner %d outside range [%d, %d)", c.ID, lo, hi)
	}
	d.Ups += c.Ups
	d.UpBytes += c.UpBytes
	d.Bcasts += c.Bcasts
	d.BcastBytes += c.BcastBytes
	if !c.OK {
		return nil
	}
	cmp := order.Key(c.Key)
	if minimum {
		cmp = order.Neg(cmp)
	}
	if !d.OK || cmp > d.best {
		d.best = cmp
		d.OK, d.ID, d.Key = true, c.ID, c.Key
	}
	return nil
}

func refExecDelegated(e *fanout.Engine, eff coord.Effect) (protocol.Result, error) {
	var d refDigest
	minimum := coord.MinimumTag(eff.Tag)
	req := wire.Round{Tag: eff.Tag, Round: 0, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step()}
	err := e.Round(req, nil, func(_, lo, hi int, answer []byte) error {
		return d.merge(answer, minimum, lo, hi)
	})
	if err != nil {
		return protocol.Result{}, err
	}
	rec := e.Recorder(eff.Phase)
	comm.RecordSized(rec, comm.Up, d.Ups, d.UpBytes)
	comm.RecordSized(rec, comm.Bcast, d.Bcasts, d.BcastBytes)
	return protocol.Result{OK: d.OK, ID: d.ID, Key: order.Key(d.Key)}, nil
}

// installs is the sequence of filter installs a root shipped: every
// Midpoint and ApproxBounds command as it crossed the root's first link
// (each goes to every shard).
type installs []string

func (in *installs) tap(l transport.Link) transport.Link {
	return &tap{Link: l, onSend: func(frame []byte) {
		wiretest.Subframes(frame, func(sub []byte) {
			if m, err := wire.DecodeMidpoint(sub); err == nil {
				*in = append(*in, fmt.Sprintf("mid %d full=%v", m.Mid, m.Full))
			}
			if m, err := wire.DecodeApproxBounds(sub); err == nil {
				*in = append(*in, fmt.Sprintf("band [%d, %d]", m.Lo, m.Hi))
			}
		})
	}}
}

// refStar builds a star of loopback shards under the given root strategy,
// logging the root's installs.
func refStar(t *testing.T, cfg Config, shards int, exec fanout.Exec, log *installs) *Engine {
	t.Helper()
	links := LoopbackLinks(shards)
	links[0] = log.tap(links[0])
	e, err := fanout.New(cfg.Core(), links, exec)
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{Engine: e}
}

// TestIncrementalMergeMatchesFullRemerge drives a star whose root re-merges
// every extraction from scratch (the reference above) and one whose root
// keeps heads side by side. The two run different local executions — the
// heads save (k+1)·S − (S+k) of them per reset — so at S > 1 they consume
// different randomness and charge different ledgers, but every decision
// must be the same one: reports, the machine's counters and every
// installed midpoint or band, at every step. At S = 1 the single shard is
// re-asked every time and the ledgers must be equal too.
func TestIncrementalMergeMatchesFullRemerge(t *testing.T) {
	const n, k, seed, steps = 24, 5, 41, 200
	type feed func(s int) (ids []int, vals []int64) // nil ids: a dense step
	cases := []struct {
		name string
		cfg  Config
		feed func() feed
	}{
		{"dense", Config{N: n, K: k, Seed: seed}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 900, Seed: 2})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
		{"delta", Config{N: n, K: k, Seed: seed}, func() feed {
			src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 4, MaxStep: 5000, Lo: 0, Hi: 1 << 20, Seed: 11})
			ids, vals, dense := make([]int, n), make([]int64, n), make([]int64, n)
			return func(s int) ([]int, []int64) {
				c := src.StepDelta(ids, vals)
				for j := 0; j < c; j++ {
					dense[ids[j]] = vals[j]
				}
				if s%7 == 3 { // a dense step now and then
					return nil, dense
				}
				return ids[:c], vals[:c]
			}
		}},
		{"distinct", Config{N: n, K: k, Seed: seed, DistinctValues: true}, func() feed {
			vals := make([]int64, n)
			return func(s int) ([]int, []int64) {
				for i := range vals {
					vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
				}
				return nil, vals
			}
		}},
		{"eps", Config{N: n, K: k, Seed: seed, Epsilon: 0.05}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 16, Hi: 1 << 17, MaxStep: 3000, Seed: 5})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
	}
	for _, g := range gathers {
		for _, tc := range cases {
			for _, shards := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/S=%d", g.name, tc.name, shards), func(t *testing.T) {
					setGather(t, g.procs)
					var refLog, incLog installs
					ref := refStar(t, tc.cfg, shards, refExecDelegated, &refLog)
					defer ref.Close()
					inc := refStar(t, tc.cfg, shards, execMerge(), &incLog)
					defer inc.Close()
					next := tc.feed()
					for s := 0; s < steps; s++ {
						ids, vals := next(s)
						var a, b []int
						if ids == nil {
							a, b = ref.Observe(vals), inc.Observe(vals)
						} else {
							a, b = ref.ObserveDelta(ids, vals), inc.ObserveDelta(ids, vals)
						}
						if !equal(a, b) {
							t.Fatalf("step %d: reports differ: full re-merge %v, incremental %v", s, a, b)
						}
						if ref.Stats() != inc.Stats() {
							t.Fatalf("step %d: stats differ: full re-merge %+v, incremental %+v", s, ref.Stats(), inc.Stats())
						}
						if fmt.Sprint(refLog) != fmt.Sprint(incLog) {
							t.Fatalf("step %d: installs differ:\nfull re-merge %v\nincremental   %v", s, refLog, incLog)
						}
						refLog, incLog = refLog[:0], incLog[:0]
						if shards == 1 && (ref.Counts() != inc.Counts() || ref.Bytes() != inc.Bytes() || ref.Overhead() != inc.Overhead()) {
							t.Fatalf("step %d: S=1 ledgers differ: full re-merge %v/%v/%v, incremental %v/%v/%v", s,
								ref.Counts(), ref.Bytes(), ref.Overhead(), inc.Counts(), inc.Bytes(), inc.Overhead())
						}
					}
					if err := inc.Err(); err != nil {
						t.Fatal(err)
					}
					if st := inc.Stats(); st.Resets < 2 || st.HandlerCalls == 0 {
						t.Fatalf("trace too quiet to compare anything: %+v", st)
					}
					if shards > 1 && inc.Counts().Total() >= ref.Counts().Total() {
						t.Fatalf("S=%d: incremental root charged %d model messages, full re-merge %d", shards, inc.Counts().Total(), ref.Counts().Total())
					}
				})
			}
		}
	}
}
