package coord

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// refReset is FILTERRESET as Algorithm 1 spells it (lines 36-42) and as
// this repository ran it until the reset became one execution for the k+1
// largest keys: k+1 MAXIMUMPROTOCOL executions one after the other, each
// over the nodes no earlier one extracted. The pieces are the parent
// commit's, verbatim but for where they live: the machine's extraction
// loop (nextExtraction and the reset arms of ExecDone and Ack) is run's
// loop, and the node side's extraction bit — Nodes' flagExtracted, its
// TagReset cohort {flagExtracted, 0}, the marking in Winner, the clearing
// in ResetBegin — is a bitset of the reference's own, beside the bank whose
// keys the extractions run over. It shares with the sweep the round
// kernel and the single-winner Exec, nothing of the reset. The parent drew
// every extraction from the nodes' generators; here extraction j flips the
// coins of tag TagReset+j, so the k+1 executions of one step stay
// independent of each other, as the parent's were. A reference run
// therefore takes the parent's decisions and runs the parent's rounds, and
// charges a ledger of the parent's distribution, not the parent's draws
// (TestReferenceResetChargesTheParentLedger): the independent reference the
// sweep's decisions are checked against (refreset_equiv_test.go).
type refReset struct {
	bank      *Nodes
	extracted []uint64 // bit i&63 of word i>>6: extracted by the running reset
	in        protocol.InPlay

	resetIdx int
	want     int // number of reset extractions (min(K+1, N))
}

func newRefReset(bank *Nodes) *refReset {
	return &refReset{bank: bank, extracted: make([]uint64, (bank.Len()+63)>>6)}
}

// begin is the extraction half of the parent's Nodes.ResetBegin.
func (r *refReset) begin() { clear(r.extracted) }

// round is the parent's Nodes.Round for TagReset: round 0 enlists the
// not-yet-extracted, reset extractions always run exactly.
func (r *refReset) round(rd int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	b := r.bank
	if rd == 0 {
		r.in.Fill(len(b.keys), func(w int) uint64 { return ^r.extracted[w] })
	}
	coin := rng.NewCoin(b.seed, step, TagReset+uint8(r.resetIdx), uint(rd), uint64(bound))
	protocol.Field{Keys: b.keys}.Round(&r.in, &coin, best, false, b.lo, send)
}

// run answers the machine's one EffExec over TagReset with the parent's
// extraction loop: resetIdx extractions so far, each a maximum execution
// whose winner is marked extracted and delivered; the machine tells the
// members itself afterwards.
func (r *refReset) run(m *Machine, eff Effect, step int64) Effect {
	r.resetIdx = 0
	r.want = m.cfg.K + 1
	if r.want > m.cfg.N {
		r.want = m.cfg.N // k == n: there is no (k+1)-st value
	}
	if eff.Want != r.want {
		panic(fmt.Sprintf("coord: reset wants %d winners, the reference extracts %d", eff.Want, r.want))
	}
	for r.resetIdx < r.want {
		ex := protocol.NewExec(m.cfg.N, 1, false, m.Recorder(comm.PhaseReset), nil, step)
		for ex.More() {
			r.round(ex.Round(), ex.Best(), m.cfg.N, step, ex.Bid)
			ex.EndRound()
		}
		res := ex.Result()
		if !res.OK {
			panic("coord: reset extraction found no participant")
		}
		i := r.bank.index(res.ID)
		r.extracted[i>>6] |= 1 << (i & 63)
		eff = m.ExecDone(res.OK, res.ID, res.Key)
		r.resetIdx++
	}
	return eff
}

// RefMonitor is a sequential monitor whose resets are the reference's: one
// machine over one full-range bank, driven by the smallest adapter
// (coord_test.go's driver). It is exported to the external tests of this
// package, which hold every engine shape to its decisions.
type RefMonitor struct{ d *driver }

// RefConfig is the part of an engine configuration a RefMonitor has.
type RefConfig struct {
	N, K    int
	Seed    uint64
	Epsilon float64
	Ordered bool
}

func NewRefMonitor(cfg RefConfig) *RefMonitor {
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		panic(err)
	}
	bank := NewNodes(cfg.N, 0, cfg.N, cfg.Seed, false, tol)
	if cfg.Ordered {
		bank.EnableOrderFilters(cfg.K)
	}
	d := &driver{mach: New(Config{N: cfg.N, K: cfg.K, Tol: tol, Ordered: cfg.Ordered}), bank: bank, see: bank.Observe, round: bank.Round}
	d.reset = newRefReset(bank)
	return &RefMonitor{d}
}

// Observe runs one dense step.
func (r *RefMonitor) Observe(vals []int64) []int { return r.d.observe(vals) }

// ObserveDelta runs one sparse step: vals[j] is node ids[j]'s new value.
func (r *RefMonitor) ObserveDelta(ids []int, vals []int64) []int {
	return r.d.observeDelta(ids, vals)
}

func (r *RefMonitor) Stats() Stats                  { return r.d.mach.Stats() }
func (r *RefMonitor) Ledger() *comm.Ledger          { return r.d.mach.Ledger() }
func (r *RefMonitor) AppendRanking(dst []int) []int { return r.d.mach.AppendRanking(dst) }
func (r *RefMonitor) Bounds() filter.Bounds         { return *r.d.bank.inst }
