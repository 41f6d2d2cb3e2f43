package coord

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stream"
)

// refSampler is the per-node execution state banks carried before
// Nodes.Round kept only who is still in play: the reference the kernel's
// rounds are checked against. It is written out here, sharing no code
// with protocol.Field.Round but the trial's definition (rng.Coin, built
// here per node and round, where the kernel builds one a round).
type refSampler struct {
	key    order.Key
	bound  uint64
	tol    order.Tol
	active bool
}

func (s *refSampler) round(best order.Key, coin rng.Coin, id int) bool {
	if !s.active {
		return false
	}
	if s.tol.WidenHi(best) > s.key {
		s.active = false
		return false
	}
	if coin.Hit(uint64(id)) {
		s.active = false
		return true
	}
	return false
}

// refBank answers protocol rounds for a bank the naive way: every hosted
// node re-evaluates its cohort membership and consults its own sampler in
// every round, samplers (re)initialized at round 0. It also keeps what
// banks kept per node before a violation became an entry of one of the
// view's violator lists — the step of the node's last violation and its
// membership then, the flagWasTop bit — so its violation cohorts are the
// flag-and-stamp predicate, sharing nothing with the lists.
type refBank struct {
	b        *Nodes
	samplers []refSampler
	violStep []int64
	wasTop   []bool
}

func newRefBank(b *Nodes) *refBank {
	rb := &refBank{b: b, samplers: make([]refSampler, b.Len()), violStep: make([]int64, b.Len()), wasTop: make([]bool, b.Len())}
	for i := range rb.violStep {
		rb.violStep[i] = -1
	}
	return rb
}

// Observe is the bank's Observe, stamping the violator.
func (rb *refBank) Observe(id int, v int64, step int64) (topViol, outViol bool, err error) {
	if topViol, outViol, err = rb.b.Observe(id, v, step); topViol || outViol {
		rb.violStep[id-rb.b.lo], rb.wasTop[id-rb.b.lo] = step, topViol
	}
	return topViol, outViol, err
}

// participates is cohort membership evaluated the way per-node banks did
// it: a switch per node, sharing nothing with Round's enlistment.
func (rb *refBank) participates(i int, tag uint8, step int64) bool {
	b := rb.b
	switch tag {
	case TagViolMin:
		return rb.violStep[i] == step && rb.wasTop[i]
	case TagViolMax:
		return rb.violStep[i] == step && !rb.wasTop[i]
	case TagHandMin:
		return b.inTop(i)
	case TagHandMax:
		return !b.inTop(i)
	case TagReset:
		return true
	default:
		panic(fmt.Sprintf("coord: unknown protocol tag %d", tag))
	}
}

func (rb *refBank) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	for i := range rb.b.keys {
		if !rb.participates(i, tag, step) {
			continue
		}
		if r == 0 {
			k := rb.b.keys[i]
			if MinimumTag(tag) {
				k = order.Neg(k)
			}
			tol := rb.b.tol
			if !TolerantTag(tag) {
				tol = order.Tol{}
			}
			rb.samplers[i] = refSampler{key: k, bound: uint64(bound), tol: tol, active: true}
		}
		if rb.samplers[i].round(best, rng.NewCoin(rb.b.seed, step, tag, uint(r), uint64(bound)), rb.b.lo+i) {
			send(rb.b.lo+i, rb.b.keys[i])
		}
	}
}

// observeFunc is the shape of Nodes.Observe.
type observeFunc func(id int, v int64, step int64) (topViol, outViol bool, err error)

// viewsObserve hands each observation to the Sub view hosting its node, as
// internal/runtime's shards do: a view's violation cohorts are made of the
// violations observed through it.
func viewsObserve(views []*Nodes) observeFunc {
	return func(id int, v int64, step int64) (bool, bool, error) {
		for _, view := range views {
			if id < view.Hi() {
				return view.Observe(id, v, step)
			}
		}
		panic("id outside every view")
	}
}

// roundFunc is the shape of Nodes.Round.
type roundFunc func(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key))

// viewsRound fans one round out over disjoint Sub views in ascending
// range order, as internal/runtime's shards do.
func viewsRound(views []*Nodes) roundFunc {
	return func(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
		for _, v := range views {
			v.Round(tag, r, best, bound, step, send)
		}
	}
}

// execute runs one whole execution for the want best keys through round,
// charging rec, and returns its winners.
func execute(round roundFunc, tag uint8, want, bound int, step int64, rec comm.Recorder) []protocol.Winner {
	ex := protocol.NewExec(bound, want, MinimumTag(tag), rec, nil, step)
	for ex.More() {
		round(tag, ex.Round(), ex.Best(), bound, step, ex.Bid)
		ex.EndRound()
	}
	return ex.Winners()
}

// TestRoundMatchesPerNodeSamplers drives one workload through two
// machines — one over Nodes.Round (whole bank, or split into Sub views),
// one over per-node samplers — and demands, after every step, the same
// report and the same ledger by phase in messages and bytes. The walk's step is large against its
// range, so violation, handler and reset executions all occur; ε > 0
// exercises the tolerant cut.
func TestRoundMatchesPerNodeSamplers(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		eps   float64
		views []int // Sub view boundaries; nil drives the whole bank
	}{
		{n: 12, k: 3},
		{n: 9, k: 1, views: []int{0, 4, 9}},
		{n: 7, k: 7},
		{n: 64, k: 5, views: []int{0, 1, 2, 30, 64}},
		{n: 64, k: 5, eps: 0.1},
		{n: 33, k: 32, eps: 0.02, views: []int{0, 16, 33}},
	} {
		name := fmt.Sprintf("n=%d k=%d eps=%g views=%v", tc.n, tc.k, tc.eps, tc.views)
		tol, err := order.NewTol(tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		kern := newDriverTol(tc.n, tc.k, 41, tol)
		if tc.views != nil {
			var views []*Nodes
			for i := 0; i+1 < len(tc.views); i++ {
				views = append(views, kern.bank.Sub(tc.views[i], tc.views[i+1]))
			}
			kern.see, kern.round = viewsObserve(views), viewsRound(views)
		}
		ref := newDriverTol(tc.n, tc.k, 41, tol)
		rb := newRefBank(ref.bank)
		ref.see, ref.round = rb.Observe, rb.Round

		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 400, Seed: 6})
		vals := make([]int64, tc.n)
		for s := 0; s < 250; s++ {
			src.Step(vals)
			got, want := kern.observe(vals), ref.observe(vals)
			where := fmt.Sprintf("%s step %d", name, s)
			if !equal(got, want) {
				t.Fatalf("%s: report %v, reference %v", where, got, want)
			}
			for _, ph := range comm.Phases() {
				kl, rl := kern.mach.Ledger(), ref.mach.Ledger()
				if kl.PhaseCounts(ph) != rl.PhaseCounts(ph) || kl.PhaseBytes(ph) != rl.PhaseBytes(ph) {
					t.Fatalf("%s: phase %v ledger %v/%v, reference %v/%v", where, ph,
						kl.PhaseCounts(ph), kl.PhaseBytes(ph), rl.PhaseCounts(ph), rl.PhaseBytes(ph))
				}
			}
		}
		if st := kern.mach.Stats(); st != ref.mach.Stats() {
			t.Fatalf("%s: stats %+v, reference %+v", name, st, ref.mach.Stats())
		}
		if st := kern.mach.Stats(); tc.k < tc.n && (st.Resets < 2 || st.HandlerCalls == 0) {
			t.Fatalf("%s: workload too calm to exercise the cohorts: %+v", name, st)
		}
	}
}

// TestRoundFirstSeenMidExecution pins what a bank does when the first
// round it sees of an execution is not round 0 — a host that joined while
// the execution was running: it has nobody in play, so nobody bids,
// exactly as zero-valued per-node samplers behave.
// The next round 0 enlists normally.
func TestRoundFirstSeenMidExecution(t *testing.T) {
	const n = 16
	kern, refNodes := NewNodes(n, 0, n, 5, false, order.Tol{}), NewNodes(n, 0, n, 5, false, order.Tol{})
	ref := newRefBank(refNodes)
	for _, round := range []roundFunc{kern.Round, ref.Round} {
		for r := 1; r < protocol.Rounds(n); r++ {
			round(TagReset, r, order.NegInf, n, 1, func(id int, _ order.Key) {
				t.Fatalf("node %d bid in round %d of an execution the bank never saw start", id, r)
			})
		}
	}

	var kc, rc comm.Counter
	got, want := execute(kern.Round, TagReset, 3, n, 1, &kc), execute(ref.Round, TagReset, 3, n, 1, &rc)
	if !slices.Equal(got, want) || len(got) != 3 || kc.Snapshot() != rc.Snapshot() {
		t.Fatalf("execution after stray rounds: %+v %v, reference %+v %v", got, kc.Snapshot(), want, rc.Snapshot())
	}
}

// TestRoundAbandonedExecutionLeaksNoMember pins what a bank does with an
// execution its coordinator abandoned mid-way (rounds 0..2 only, as after
// a failover): the members it left in play are overwritten by the next
// round 0's enlistment, so none of them leaks into a cohort it is not part
// of, and the execution after matches the per-node reference in result
// and charges.
func TestRoundAbandonedExecutionLeaksNoMember(t *testing.T) {
	const n = 200
	kern, refNodes := NewNodes(n, 0, n, 5, false, order.Tol{}), NewNodes(n, 0, n, 5, false, order.Tol{})
	ref := newRefBank(refNodes)
	for _, round := range []roundFunc{kern.Round, ref.Round} {
		for r := 0; r <= 2; r++ {
			round(TagReset, r, order.NegInf, n, 2, func(int, order.Key) {})
		}
	}
	if kern.inPlay.Len() < n/2 {
		t.Fatalf("abandoned execution left %d of %d nodes in play; the case tests nothing", kern.inPlay.Len(), n)
	}
	for id := 0; id < n; id += 3 {
		kern.Winner(id, true) // a member: not part of the outsiders' cohort
		refNodes.Winner(id, true)
	}
	var kc, rc comm.Counter
	got, want := execute(kern.Round, TagHandMax, 1, n, 2, &kc), execute(ref.Round, TagHandMax, 1, n, 2, &rc)
	if !slices.Equal(got, want) || len(got) != 1 || kc.Snapshot() != rc.Snapshot() {
		t.Fatalf("execution after an abandoned one: %+v %v, reference %+v %v", got, kc.Snapshot(), want, rc.Snapshot())
	}
	if got[0].ID%3 == 0 {
		t.Fatalf("execution after an abandoned one was won by node %d, no part of its cohort", got[0].ID)
	}
	if kern.inPlay.Len() != 0 {
		t.Fatalf("%d nodes still in play after a completed execution", kern.inPlay.Len())
	}
}

// TestRoundInPlaySetFootprint pins the bank-side cost of an execution's
// state: the in-play set is allocated on the first round 0, at one bit per
// hosted node plus one per 64-node word, and nothing is allocated
// afterwards.
func TestRoundInPlaySetFootprint(t *testing.T) {
	const n = 100000
	b := NewNodes(n, 0, n, 9, false, order.Tol{})
	best := order.NegInf
	send := func(_ int, key order.Key) { best = order.Max(best, key) }
	exec := func() {
		best = order.NegInf
		for r := 0; r < protocol.Rounds(n); r++ {
			b.Round(TagReset, r, best, n, 1, send)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exec()
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(n/7); got > budget { // n/8 + n/512, and the allocator's size classes
		t.Fatalf("the first execution over %d hosted nodes allocated %d bytes, budget %d", n, got, budget)
	}
	if a := testing.AllocsPerRun(10, exec); a != 0 {
		t.Fatalf("a repeated execution on a warm bank: %v allocs/run, want 0", a)
	}
}

// TestViolationCohortFromTheListIsTheStampedOne holds the violation cohorts
// — enlisted from the view's two violator lists, split by membership, and
// no stamp per node — to the flag-and-stamp predicate (refBank), over
// scripts of what hosts see: whole banks and Sub views, word-aligned and
// not; steps in which some views observe nothing, so that their lists fall
// steps behind; nodes that violate again and again at one constant step
// (benchmark/layers.go observes thousands of times at step 1 against
// filters it never re-installs); executions asked about a step no list was
// filled at; and views whose first round of an execution is not round 0.
// Membership changes as on every host: between one step's filter checks
// and the next step's. Every round's sends must agree, and no node is on
// both lists.
func TestViolationCohortFromTheListIsTheStampedOne(t *testing.T) {
	const n = 96
	for _, cuts := range [][]int{{0, n}, {0, 1, 2, 40, n}, {0, 64, n}, {0, 37, 70, n}} {
		kern, refNodes := NewNodes(n, 0, n, 11, false, order.Tol{}), NewNodes(n, 0, n, 11, false, order.Tol{})
		ref := newRefBank(refNodes)
		views := []*Nodes{kern} // the bank itself, or views of it
		if len(cuts) > 2 {
			views = nil
			for i := 0; i+1 < len(cuts); i++ {
				views = append(views, kern.Sub(cuts[i], cuts[i+1]))
			}
		}
		see, round := viewsObserve(views), viewsRound(views)
		r := rng.New(uint64(len(cuts)), 3)
		both := func(f func(b *Nodes)) { f(kern); f(refNodes) }
		step, bids := int64(1), 0
		for it := 0; it < 400; it++ {
			switch r.Intn(8) {
			case 0: // a membership of any size, then the install every host sees after one
				step++
				both(func(b *Nodes) { b.ResetBegin() })
				for id := r.Intn(3); id < n; id += 1 + r.Intn(9) {
					isTop := r.Intn(2) == 0
					both(func(b *Nodes) { b.Winner(id, isTop) })
				}
				fallthrough
			case 1:
				mid := order.Key((900 + r.Int63n(200)) * n)
				both(func(b *Nodes) { b.Midpoint(mid, false) })
			case 2: // time passes; the views that observe nothing keep an old list
				step += 1 + int64(r.Intn(3))
			}
			where := fmt.Sprintf("cuts %v iteration %d step %d", cuts, it, step)
			// Observations over a random window, so that whole views are
			// skipped, some nodes more than once at this one step.
			lo, hi := r.Intn(n), r.Intn(n)
			for id := min(lo, hi); id <= max(lo, hi); id++ {
				for again := r.Intn(3); again >= 0; again-- {
					v := 880 + r.Int63n(240)
					kt, ko, _ := see(id, v, step)
					rt, ro, _ := ref.Observe(id, v, step)
					if kt != rt || ko != ro {
						t.Fatalf("%s: Observe(%d, %d) = %v %v, reference %v %v", where, id, v, kt, ko, rt, ro)
					}
				}
			}
			violators := 0
			for _, v := range views {
				onTop := map[int32]bool{}
				for _, i := range v.violTop {
					onTop[i] = true
				}
				onOut := map[int32]bool{}
				for _, i := range v.violOut {
					if onTop[i] {
						t.Fatalf("%s: view [%d, %d) lists node %d as a member and as an outsider: %v %v", where, v.lo, v.hi, v.lo+int(i), v.violTop, v.violOut)
					}
					onOut[i] = true
				}
				violators += len(onTop) + len(onOut)
			}
			for _, asked := range []int64{step, step + 1} {
				for _, tag := range []uint8{TagViolMin, TagViolMax} {
					// Nobody is stamped with a step yet to come, and no list
					// was filled at it; hosts that join an execution already
					// running have nobody in play.
					first := 0
					if r.Intn(5) == 0 {
						first = 1
					}
					for rd := first; rd < protocol.Rounds(n); rd++ {
						var ks, rs []bid
						round(tag, rd, order.NegInf, n, asked, func(id int, key order.Key) { ks = append(ks, bid{id, key}) })
						if first == 0 {
							ref.Round(tag, rd, order.NegInf, n, asked, func(id int, key order.Key) { rs = append(rs, bid{id, key}) })
						}
						if fmt.Sprint(ks) != fmt.Sprint(rs) {
							t.Fatalf("%s: tag %d asked about step %d from round %d, round %d sends %v, stamped cohort %v", where, tag, asked, first, rd, ks, rs)
						}
						bids += len(ks)
					}
				}
			}
			if it == 399 && (violators == 0 || bids < 1000) {
				t.Fatalf("%s: %d violators listed, %d bids in all; the script tests nothing", where, violators, bids)
			}
		}
	}
}

// TestRepeatedViolationsKeepTheListsSmall observes the same violators a
// thousand times each at one step, as benchmark/layers.go does: the lists
// stay within a small multiple of the violators they name, and each cohort
// is still exactly its side's violators: those its first round heard from
// and those it left in play.
func TestRepeatedViolationsKeepTheListsSmall(t *testing.T) {
	const n, step = 300, int64(1)
	b := NewNodes(n, 0, n, 3, false, order.Tol{})
	for id := 0; id < n; id += 2 {
		b.Winner(id, true)
	}
	b.Midpoint(b.codec.Encode(100, 0), false)
	for rep := 0; rep < 1000; rep++ {
		for id := 0; id < n; id += 3 { // members below, outsiders above the midpoint
			v := int64(200)
			if id%2 == 0 {
				v = 0
			}
			if _, _, err := b.Observe(id, v, step); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		tag  uint8
		list []int32
		side int
	}{{TagViolMin, b.violTop, 0}, {TagViolMax, b.violOut, 1}} {
		const violators = n / 6
		if cap(c.list) > 4*violators+8 {
			t.Fatalf("tag %d: a list of capacity %d for %d violators", c.tag, cap(c.list), violators)
		}
		var sent []int
		b.Round(c.tag, 0, order.NegInf, n, step, func(id int, _ order.Key) { sent = append(sent, id) })
		got := b.inPlay.AppendTo(sent)
		if len(got) != violators || b.inPlay.Len() != violators-len(sent) {
			t.Fatalf("tag %d: %d sent and %d in play (count %d), want the %d violators", c.tag, len(sent), len(got)-len(sent), b.inPlay.Len(), violators)
		}
		for _, i := range got {
			if i%3 != 0 || i%2 != c.side {
				t.Fatalf("tag %d: node %d in play, no violator of that side", c.tag, i)
			}
		}
	}
}
