package coord

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/wire"
)

// The ordered mode (Config.Ordered) is the extension the paper sketches as
// future work in §5: keep the coordinator informed not only of the top-k
// *set* but of the *ranking* of those k nodes by value. The paper
// conjectures that combining the neighbor-midpoint strategy of Lam et al.
// with its maximum protocol yields a competitive algorithm for this
// variant; the mode realizes exactly that combination:
//
//   - The k-boundary (who is in the top set) is Algorithm 1 unchanged.
//   - Within the top band, every member additionally holds an order
//     filter: the interval between the midpoints to its ranking neighbors'
//     last-reported keys (the Lam et al. strategy restricted to k nodes).
//     The top member's upper and the bottom member's lower bound are
//     infinite: the k-boundary already fences the band from the outside.
//
// Wherever the set mode would report EffDone the machine first settles the
// band (settle), all of it charged to the handler phase — it is
// coordinator-driven repair work:
//
//   - After a FILTERRESET the ranking is the order of the reset's winners:
//     its execution runs exactly and delivers the k+1 largest keys best
//     first. Every member is sent its filter and nothing is charged — the
//     coordinator learned every member's key in the reset it just paid
//     for, and the install that tells a member it is one can carry its
//     neighbors' keys — and nothing is checked: a key the coordinator
//     learned this step lies inside the filter derived from it.
//   - Otherwise it runs check passes. A pass asks every member, in rank
//     order, whether its key left its order filter (EffOrderCheck); one
//     that did reports it (one Up). A pass nobody reported in ends the
//     step. After any other the band is re-sorted by the last reports and
//     every member whose interval changed receives the new one
//     (EffOrderBounds, one Down each), then the next pass runs. Values
//     are fixed during a step and a member's own report always lies inside
//     the interval derived from it, so a member reports at most once a
//     step and at most k passes end in a re-sort.
//
// Rank reports are exact at every step: order filters that hold guarantee
// the estimated ranking is the true ranking of the band (the dominance
// argument of Lam et al.), and membership exactness is Algorithm 1's.

// ranked is one member of the ordered mode's band.
type ranked struct {
	id  int
	est order.Key       // the key the coordinator last learned of the member
	iv  filter.Interval // the order filter the member holds
}

// AppendRanking appends the current top-k ids by rank, largest value first,
// to dst and returns the extended slice: the ordered mode's report, exact
// between steps. A set-mode machine appends nothing.
func (m *Machine) AppendRanking(dst []int) []int {
	for _, b := range m.band {
		dst = append(dst, b.id)
	}
	return dst
}

// OrderFilter returns the order filter member id holds, for invariant
// checks in tests. ok is false for a non-member.
func (m *Machine) OrderFilter(id int) (iv filter.Interval, ok bool) {
	for _, b := range m.band {
		if b.id == id {
			return b.iv, true
		}
	}
	return filter.Interval{}, false
}

// settle ends the step: at once in the set mode, after the band's order
// filters hold in the ordered mode.
func (m *Machine) settle() Effect {
	if !m.cfg.Ordered {
		return m.done()
	}
	m.ordIdx, m.ordMoved = 0, false
	if m.ordReset {
		return m.nextOrderBounds()
	}
	return m.nextOrderCheck()
}

// done returns the machine to idle with the step's report final.
func (m *Machine) done() Effect {
	m.state = stIdle
	return Effect{Kind: EffDone}
}

// nextOrderCheck continues the running check pass with the next member, or
// concludes it: done if nobody reported, else re-sort and reassign.
func (m *Machine) nextOrderCheck() Effect {
	if m.ordIdx < len(m.band) {
		m.state = stOrdCheck
		return Effect{Kind: EffOrderCheck, Target: m.band[m.ordIdx].id}
	}
	if !m.ordMoved {
		return m.done()
	}
	slices.SortStableFunc(m.band, func(a, b ranked) int { return cmp.Compare(b.est, a.est) })
	m.ordIdx = 0
	return m.nextOrderBounds()
}

// OrderDone answers an EffOrderCheck: key is the member's current key if
// it left its order filter (violated), in which case the report is charged
// and becomes the member's estimate. It returns the next effect.
func (m *Machine) OrderDone(key order.Key, violated bool) Effect {
	if m.state != stOrdCheck {
		panic(fmt.Sprintf("coord: OrderDone in state %d", m.state))
	}
	if violated {
		b := &m.band[m.ordIdx]
		b.est = key
		m.recHand.RecordSized(comm.Up, 1, wire.SizeBid(b.id, int64(key)))
		m.ordMoved = true
	}
	m.ordIdx++
	return m.nextOrderCheck()
}

// nextOrderBounds installs the neighbor-midpoint interval of the next
// member, in rank order, whose interval differs from the one it holds — of
// every member after a reset, when stale node-side intervals of an earlier
// membership must not survive — and, past the last, settles again with the
// next check pass (after a reset the step is done). Estimates do not move during the installs, so
// each interval is derived when its turn comes.
func (m *Machine) nextOrderBounds() Effect {
	for ; m.ordIdx < len(m.band); m.ordIdx++ {
		b := &m.band[m.ordIdx]
		iv := filter.Full()
		if m.ordIdx > 0 {
			iv.Hi = order.Midpoint(b.est, m.band[m.ordIdx-1].est)
		}
		if m.ordIdx < len(m.band)-1 {
			iv.Lo = order.Midpoint(m.band[m.ordIdx+1].est, b.est)
		}
		if !m.ordReset {
			if iv == b.iv {
				continue
			}
			m.recHand.RecordSized(comm.Down, 1, wire.SizeBounds(b.id, int64(iv.Lo), int64(iv.Hi)))
		}
		b.iv = iv
		m.ordIdx++
		m.state = stOrdBounds
		return Effect{Kind: EffOrderBounds, Target: b.id, Lo: iv.Lo, Hi: iv.Hi}
	}
	if m.ordReset {
		m.ordReset = false
		return m.done()
	}
	return m.settle()
}
