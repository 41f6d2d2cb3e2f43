package protocol

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// refExec is Exec as it stood while an execution had one winner, verbatim
// but for the name: the running best, the winner beside it, nothing else.
// With want = 1 the sweep's driver must replay it bid for bid.
type refExec struct {
	minimum bool
	rounds  int
	r       int
	step    int64
	rec     comm.Recorder
	tr      *comm.Trace

	best   order.Key // running best in the comparison domain
	winID  int
	winKey order.Key
	any    bool
}

func newRefExec(bound int, minimum bool, rec comm.Recorder, tr *comm.Trace, step int64) refExec {
	return refExec{
		minimum: minimum,
		rounds:  Rounds(bound),
		step:    step,
		rec:     rec,
		tr:      tr,
		best:    order.NegInf,
		winID:   -1,
		winKey:  order.NegInf,
	}
}

func (e *refExec) More() bool      { return e.r < e.rounds }
func (e *refExec) Round() int      { return e.r }
func (e *refExec) Best() order.Key { return e.best }

func (e *refExec) Bid(id int, key order.Key) {
	e.rec.RecordSized(comm.Up, 1, wire.SizeBid(id, int64(key)))
	e.tr.Append(comm.Event{Step: e.step, Kind: comm.Up, From: id, To: comm.Coordinator, Payload: int64(key), Note: "proto send"})
	e.any = true
	cmp := key
	if e.minimum {
		cmp = order.Neg(cmp)
	}
	if cmp > e.best {
		e.best = cmp
		e.winID = id
		e.winKey = key
	}
}

func (e *refExec) EndRound() {
	if !e.More() {
		panic("protocol: EndRound past the final round")
	}
	e.rec.RecordSized(comm.Bcast, 1, wire.SizeBest(e.r, int64(e.best)))
	e.tr.Append(comm.Event{Step: e.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: int64(e.best), Note: "proto round"})
	e.r++
}

func (e *refExec) Result() Result {
	if !e.any {
		return Result{OK: false, ID: -1, Key: order.NegInf, Rounds: e.r}
	}
	return Result{OK: true, ID: e.winID, Key: e.winKey, Rounds: e.r}
}

// roundDriver is what the scripted node side below needs of either driver.
type roundDriver interface {
	More() bool
	Round() int
	Best() order.Key
	Bid(id int, key order.Key)
	EndRound()
}

// scripted runs one execution with the node side scripted: node i holds
// keys[i] and its coin first succeeds in round hit[i] (the last round's
// always does). A node the cut dominates drops out silently; any other
// bids in the first round from hit[i] on that finds it in play, and leaves.
// It reports every bid to saw, with the round and the cut it was made
// against, and returns the number of rounds run.
func scripted(ex roundDriver, keys []order.Key, hit []int, minimum bool, saw func(r, id int, key, cut order.Key)) int {
	var out [8]bool // who has left; the scopes here stop at 6 nodes
	rounds := 0
	for ; ex.More(); rounds++ {
		r, cut := ex.Round(), ex.Best()
		for i, key := range keys {
			cmp := key
			if minimum {
				cmp = order.Neg(key)
			}
			if out[i] {
				continue
			}
			if cut > cmp {
				out[i] = true
				continue
			}
			if r >= hit[i] {
				if saw != nil {
					saw(r, i, cmp, cut)
				}
				ex.Bid(i, key)
				out[i] = true
			}
		}
		ex.EndRound()
	}
	return rounds
}

// schedules calls fn with every assignment of a first-hit round in
// [0, last] to n nodes.
func schedules(n, last int, fn func(hit []int)) {
	hit := make([]int, n)
	for {
		fn(hit)
		i := 0
		for ; i < n; i++ {
			if hit[i]++; hit[i] <= last {
				break
			}
			hit[i] = 0
		}
		if i == n {
			return
		}
	}
}

// permutations calls fn with every order of 1..n.
func permutations(n int, fn func(keys []order.Key)) {
	keys := make([]order.Key, n)
	for i := range keys {
		keys[i] = order.Key(i + 1)
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(keys)
			return
		}
		for i := k; i < n; i++ {
			keys[k], keys[i] = keys[i], keys[k]
			rec(k + 1)
			keys[k], keys[i] = keys[i], keys[k]
		}
	}
	rec(0)
}

// TestSweepSmallScopeExhaustive checks the sweep at small scope without
// sampling anything: every order of n <= 6 distinct keys over the node
// ids, every want <= n (up to n = 5 also one more than there are, and the
// minimum sense), and every hit schedule — the round in which each node's
// coin first succeeds, which is all of a run's randomness — through Exec
// with the node side scripted. In every run the winners are the want best keys, best first;
// the execution takes ceil(log2 n) + 1 rounds exactly; the cut never falls
// and no bid is at or below the cut it was made against (so every bid the
// coordinator pays for could still matter); and with want = 1 the driver
// replays the single-winner Exec it replaced: the same cut every round, the
// same charges, the same trace, the same result. Las Vegas exactness is the
// first of these holding on every schedule — the last round's forced bids
// are what make it so. The kernel is tied to the same model: the schedule
// the keyed coin deals the n nodes under a seed — the first round in which
// each id's trial succeeds — scripted, is the run Field.Run makes of that
// seed, winner for winner and charge for charge.
func TestSweepSmallScopeExhaustive(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	runs := 0
	for n := 1; n <= maxN; n++ {
		last := ceilLog2(n)
		sorted := make([]Winner, n)
		permutations(n, func(keys []order.Key) {
			for _, minimum := range []bool{false, true}[:min(2, 7-n)] {
				for i := range sorted {
					sorted[i] = Winner{ID: i, Key: int64(keys[i])}
				}
				slices.SortFunc(sorted, func(a, b Winner) int {
					if minimum {
						return int(a.Key - b.Key)
					}
					return int(b.Key - a.Key)
				})
				for want := 1; want <= min(n+1, 6); want++ {
					var ex Exec
					schedules(n, last, func(hit []int) {
						runs++
						var rec comm.Counter
						ex.Begin(n, want, minimum, &rec, nil, 0)
						prevCut := order.NegInf
						rounds := scripted(&ex, keys, hit, minimum, func(r, id int, key, cut order.Key) {
							if key <= cut || cut < prevCut {
								t.Fatalf("n=%d keys=%v want=%d min=%v hit=%v: node %d bid %d in round %d against cut %d (the round before: %d)", n, keys, want, minimum, hit, id, key, r, cut, prevCut)
							}
							prevCut = cut
						})
						if rounds != last+1 {
							t.Fatalf("n=%d want=%d hit=%v: %d rounds, want %d", n, want, hit, rounds, last+1)
						}
						if got := ex.Winners(); !slices.Equal(got, sorted[:min(want, n)]) {
							t.Fatalf("n=%d keys=%v want=%d min=%v hit=%v: winners %+v, want %+v", n, keys, want, minimum, hit, got, sorted[:min(want, n)])
						}
						if c := rec.Snapshot(); c.Bcast != int64(last+1) || c.Up < int64(min(want, n)) || c.Up > int64(n) {
							t.Fatalf("n=%d want=%d hit=%v: charged %+v", n, want, hit, c)
						}
					})
				}
				// The kernel over the keyed coin against the schedule that coin
				// deals, scripted.
				for seed := uint64(0); seed < 4; seed++ {
					hit := make([]int, n)
					for i := range hit {
						for coin := rng.NewCoin(seed, 0, 0, 0, uint64(n)); !coin.Hit(uint64(i)); {
							hit[i]++
							coin = rng.NewCoin(seed, 0, 0, uint(hit[i]), uint64(n))
						}
					}
					for want := 1; want <= n; want++ {
						var rec, modelRec comm.Counter
						model := NewExec(n, want, minimum, &modelRec, nil, 0)
						scripted(&model, keys, hit, minimum, nil)
						var in InPlay
						in.EnlistExcept(n, nil)
						ex := NewExec(n, want, minimum, &rec, nil, 0)
						KeyField(keys).Run(&in, &ex, order.Tol{}, seed)
						if !slices.Equal(ex.Winners(), model.Winners()) || rec.Snapshot() != modelRec.Snapshot() || rec.BytesSnapshot() != modelRec.BytesSnapshot() {
							t.Fatalf("n=%d keys=%v want=%d min=%v seed=%d (schedule %v): the kernel found %+v charging %v, the scripted run %+v charging %v",
								n, keys, want, minimum, seed, hit, ex.Winners(), rec.Snapshot(), model.Winners(), modelRec.Snapshot())
						}
					}
				}
				// want = 1 against the driver it replaced, traces and all (up
				// to n = 5: a trace is a slice a run).
				schedules(n, last, func(hit []int) {
					var rec, refRec comm.Counter
					var tr, refTr *comm.Trace
					if n < 6 {
						tr, refTr = comm.NewTrace(64), comm.NewTrace(64)
					}
					ex, ref := NewExec(n, 1, minimum, &rec, tr, 7), newRefExec(n, minimum, &refRec, refTr, 7)
					var cuts, refCuts []order.Key
					scripted(&ex, keys, hit, minimum, func(_, _ int, _, cut order.Key) { cuts = append(cuts, cut) })
					scripted(&ref, keys, hit, minimum, func(_, _ int, _, cut order.Key) { refCuts = append(refCuts, cut) })
					if ex.Result() != ref.Result() || !slices.Equal(cuts, refCuts) ||
						rec.Snapshot() != refRec.Snapshot() || rec.BytesSnapshot() != refRec.BytesSnapshot() ||
						!slices.Equal(tr.Events(), refTr.Events()) {
						t.Fatalf("n=%d keys=%v min=%v hit=%v: want = 1 left the single-winner driver: %+v %v %v, was %+v %v %v",
							n, keys, minimum, hit, ex.Result(), cuts, rec.Snapshot(), ref.Result(), refCuts, refRec.Snapshot())
					}
				})
			}
		})
	}
	t.Logf("%d executions", runs)
}

// TestSweepTiesKeepArrivalOrder is the exhaustive check with ties: every
// key vector over three values for n <= 4, every want, every schedule. The
// winners' keys are still sort-and-take, every winner is a node of its own
// holding that key, and among equal keys the earlier bid — by round, then
// by id — is ahead and is the one kept.
func TestSweepTiesKeepArrivalOrder(t *testing.T) {
	for n := 1; n <= 4; n++ {
		last := ceilLog2(n)
		keys := make([]order.Key, n)
		schedules(n, 2, func(vals []int) { // a "schedule" of values 0..2 is a key vector
			for i, v := range vals {
				keys[i] = order.Key(v)
			}
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			slices.Reverse(sorted)
			for want := 1; want <= n; want++ {
				schedules(n, last, func(hit []int) {
					ex := NewExec(n, want, false, comm.Discard, nil, 0)
					bidAt := make([]int, n)
					scripted(&ex, keys, hit, false, func(r, id int, _, _ order.Key) { bidAt[id] = r })
					got := ex.Winners()
					if len(got) != want {
						t.Fatalf("keys=%v want=%d hit=%v: %d winners", keys, want, hit, len(got))
					}
					for i, w := range got {
						if w.Key != int64(sorted[i]) || int64(keys[w.ID]) != w.Key {
							t.Fatalf("keys=%v want=%d hit=%v: winners %+v, want keys %v", keys, want, hit, got, sorted[:want])
						}
						if i > 0 && got[i-1].Key == w.Key && (bidAt[got[i-1].ID] > bidAt[w.ID] || bidAt[got[i-1].ID] == bidAt[w.ID] && got[i-1].ID >= w.ID) {
							t.Fatalf("keys=%v want=%d hit=%v: winners %+v out of arrival order (bid rounds %v)", keys, want, hit, got, bidAt)
						}
					}
				})
			}
		})
	}
}
