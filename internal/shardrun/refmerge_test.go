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

// The head merge: the root strategy and the digest fold as they stood while
// a FILTERRESET was k+1 extractions and the root k-merged the shards'
// candidate streams (PR 20), verbatim but for what a stream is. Then a
// shard's stream was its answers to repeated TagReset executions, each
// re-asked only after the Winner it owned; now the one execution hands the
// whole stream over as a list, so "asking" a shard is advancing in its
// list, and the charges are folded once, when the list arrives. The
// extraction loop — take the best head, the first shard in range order on
// ties, stale that shard alone — is the parent's. It shares no code with
// execMerge, digest.fold and protocol.Top and is the independent reference
// they are checked against.

// refHead is the digest a shard last answered an extraction with: the
// front of what is left of its list.
type refHead struct {
	wire.ShardDigest
	fresh bool
	rest  []wire.Bid // the stream behind the head
}

// ask is the parent's re-ask of one shard: its next answer.
func (h *refHead) ask() {
	h.fresh = true
	if len(h.rest) == 0 {
		h.ShardDigest = wire.ShardDigest{}
		return
	}
	h.OK, h.ID, h.Key = true, h.rest[0].ID, h.rest[0].Key
	h.rest = h.rest[1:]
}

type refDigest struct {
	wire.ShardDigest
	tag  uint8
	best order.Key // running best in the comparison domain
	src  int       // child whose winner is the running best
}

func (d *refDigest) fold(i int, h *refHead) {
	c := h.ShardDigest
	if !c.OK {
		return
	}
	cmp := order.Key(c.Key)
	if coord.MinimumTag(d.tag) {
		cmp = order.Neg(cmp)
	}
	if !d.OK || cmp > d.best {
		d.best, d.src = cmp, i
		d.OK, d.ID, d.Key = true, c.ID, c.Key
	}
}

func refExecHeads() fanout.Exec {
	var heads []refHead
	var winners []protocol.Winner
	return func(e *fanout.Engine, eff coord.Effect) ([]protocol.Winner, error) {
		heads = heads[:0]
		var sum wire.ShardDigest
		req := wire.Round{Tag: eff.Tag, Round: 0, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
		err := e.Round(req, func(lo, hi int, answer []byte) error {
			c, err := wire.DecodeShardDigest(answer)
			if err != nil {
				return err
			}
			if c.Ups < 0 || c.UpBytes < 0 || c.Bcasts < 0 || c.BcastBytes < 0 {
				return fmt.Errorf("negative digest charges %+v", c)
			}
			sum.Ups += c.Ups
			sum.UpBytes += c.UpBytes
			sum.Bcasts += c.Bcasts
			sum.BcastBytes += c.BcastBytes
			h := refHead{}
			if c.OK {
				h.rest = append([]wire.Bid{{ID: c.ID, Key: c.Key}}, c.Rest...)
			}
			for _, w := range h.rest {
				if w.ID < lo || w.ID >= hi {
					return fmt.Errorf("digest winner %d outside range [%d, %d)", w.ID, lo, hi)
				}
			}
			heads = append(heads, h)
			return nil
		})
		if err != nil {
			return nil, err
		}
		winners = winners[:0]
		for len(winners) < eff.Want {
			d := refDigest{tag: eff.Tag}
			for pi := range heads {
				if !heads[pi].fresh {
					heads[pi].ask()
				}
				d.fold(pi, &heads[pi])
			}
			if !d.OK {
				break
			}
			heads[d.src].fresh = false // the machine answers with a Winner for d.ID
			winners = append(winners, protocol.Winner{ID: d.ID, Key: d.Key})
		}
		rec := e.Recorder(eff.Phase)
		rec.RecordSized(comm.Up, sum.Ups, sum.UpBytes)
		rec.RecordSized(comm.Bcast, sum.Bcasts, sum.BcastBytes)
		return winners, nil
	}
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

// TestIncrementalMergeMatchesFullRemerge drives a star whose root merges
// its shards' winner lists by the reference above — the k-merge of heads a
// reset's extractions used to be — and one whose root folds them through
// protocol.Top, side by side. (The name is from when the two differed in
// how many local executions they ran; the ids stay, see gathers.) Both ship
// the same frames to the same leaves, so everything must be the same at
// every step and every S: reports, the machine's counters, every installed
// midpoint or band, and all three ledgers.
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
					ref := refStar(t, tc.cfg, shards, refExecHeads(), &refLog)
					defer ref.Close()
					inc := refStar(t, tc.cfg, shards, execMerge(!tc.cfg.DistinctValues), &incLog)
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
							t.Fatalf("step %d: reports differ: head merge %v, list merge %v", s, a, b)
						}
						if ref.Stats() != inc.Stats() {
							t.Fatalf("step %d: stats differ: head merge %+v, list merge %+v", s, ref.Stats(), inc.Stats())
						}
						if fmt.Sprint(refLog) != fmt.Sprint(incLog) {
							t.Fatalf("step %d: installs differ:\nhead merge %v\nlist merge %v", s, refLog, incLog)
						}
						refLog, incLog = refLog[:0], incLog[:0]
						if ref.Counts() != inc.Counts() || ref.Bytes() != inc.Bytes() || ref.Overhead() != inc.Overhead() {
							t.Fatalf("step %d: ledgers differ: head merge %v/%v/%v, list merge %v/%v/%v", s,
								ref.Counts(), ref.Bytes(), ref.Overhead(), inc.Counts(), inc.Bytes(), inc.Overhead())
						}
					}
					if err := inc.Err(); err != nil {
						t.Fatal(err)
					}
					if st := inc.Stats(); st.Resets < 2 || st.HandlerCalls == 0 {
						t.Fatalf("trace too quiet to compare anything: %+v", st)
					}
				})
			}
		}
	}
}
