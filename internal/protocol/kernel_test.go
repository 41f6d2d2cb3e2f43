package protocol

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
)

// Sampler is the one-node reference of an Algorithm 2 execution: the
// per-node state machine the engines carried before executions kept a
// compacted member list. It lives here so the kernel is checked against
// an implementation that shares no code with it (Decide included), and
// the TestSampler* cases pin the reference's own semantics.
type Sampler struct {
	key    order.Key
	bound  uint64
	tol    order.Tol
	active bool
}

// NewSampler creates the node-side state for an exact execution with the
// given local key and population upper bound N.
func NewSampler(key order.Key, bound int) Sampler {
	return NewSamplerTol(key, bound, order.Tol{})
}

// NewSamplerTol creates the node-side state for an ε-tolerant execution.
func NewSamplerTol(key order.Key, bound int, tol order.Tol) Sampler {
	if bound <= 0 {
		panic("protocol: sampler bound must be positive")
	}
	return Sampler{key: key, bound: uint64(bound), tol: tol, active: true}
}

// Active reports whether the node still participates.
func (s *Sampler) Active() bool { return s.active }

// Round processes round r given the best key broadcast so far and reports
// whether the node sends its key this round.
func (s *Sampler) Round(best order.Key, r uint, rg *rng.RNG) bool {
	if !s.active {
		return false
	}
	if s.tol.WidenHi(best) > s.key {
		s.active = false
		return false
	}
	if rg.BernoulliPow2(r, s.bound) {
		s.active = false
		return true
	}
	return false
}

// naiveRun is the every-node-every-round reference execution: one Sampler
// per participant, all of them consulted in every round.
func naiveRun(parts []Participant, bound int, tol order.Tol, rec comm.Recorder, minimum bool) Result {
	if len(parts) == 0 {
		return Result{OK: false, ID: -1, Key: order.NegInf}
	}
	samplers := make([]Sampler, len(parts))
	for i, p := range parts {
		k := p.Key
		if minimum {
			k = order.Neg(k)
		}
		samplers[i] = NewSamplerTol(k, bound, tol)
	}
	ex := NewExec(bound, minimum, rec, nil, 0)
	for ex.More() {
		r, best := ex.Round(), ex.Best()
		for i, p := range parts {
			if samplers[i].Round(best, uint(r), p.RNG) {
				ex.Bid(p.ID, p.Key)
			}
		}
		ex.EndRound()
	}
	return ex.Result()
}

// kernelCase is one cohort of the equivalence matrix: keys by ascending
// participant position, ids strictly increasing but not dense.
type kernelCase struct {
	name  string
	ids   []int
	keys  []order.Key
	bound int
}

func kernelCases() []kernelCase {
	var cases []kernelCase
	add := func(name string, keys []order.Key, slack int) {
		ids := make([]int, len(keys))
		for i := range ids {
			ids[i] = 3*i + 1
		}
		cases = append(cases, kernelCase{name: name, ids: ids, keys: keys, bound: len(keys) + slack})
	}
	add("empty", nil, 4)
	add("one", []order.Key{7}, 0)
	add("two", []order.Key{7, 9}, 0)
	add("two-tied", []order.Key{5, 5}, 0)
	add("all-tied", []order.Key{4, 4, 4, 4, 4, 4, 4, 4, 4}, 0)
	add("sentinels", []order.Key{order.NegInf, 3, order.PosInf, order.NegInf, order.PosInf}, 0)
	r := rng.New(99, 7)
	for _, n := range []int{3, 17, 64, 257, 1000} {
		distinct := make([]order.Key, n)
		for i, p := range r.Perm(n) {
			distinct[i] = order.Key(1000 + 10*int64(p))
		}
		add(fmt.Sprintf("distinct-%d", n), distinct, 0)
		add(fmt.Sprintf("distinct-%d-loose", n), distinct, 5*n+3)
		dups := make([]order.Key, n)
		for i := range dups {
			dups[i] = order.Key(1000 + r.Int63n(int64(n/3+1)))
		}
		add(fmt.Sprintf("dups-%d", n), dups, 0)
		add(fmt.Sprintf("dups-%d-loose", n), dups, n/2+1)
		neg := make([]order.Key, n)
		for i := range neg {
			neg[i] = order.Key(r.Int63n(2001) - 1000)
		}
		add(fmt.Sprintf("signed-%d", n), neg, 1)
	}
	return cases
}

// generators returns n generators split from one seeded root.
func generators(n int, seed uint64) []rng.RNG {
	root := rng.New(seed, 0x6b)
	out := make([]rng.RNG, n)
	for i := range out {
		out[i] = root.SplitValue(uint64(i))
	}
	return out
}

func mustTol(t *testing.T, eps float64) order.Tol {
	t.Helper()
	tol, err := order.NewTol(eps)
	if err != nil {
		t.Fatal(err)
	}
	return tol
}

// TestKernelMatchesNaiveReference runs every cohort through the naive
// reference and through both entries of the compacted kernel — participant
// records and the flat population — from identical generator states, and
// demands the same Result, the same message and byte charges, and the same
// final state of every participant's generator: the kernel may skip the
// visits that would have found a node inactive, and nothing else.
func TestKernelMatchesNaiveReference(t *testing.T) {
	tols := map[string]order.Tol{"exact": {}, "eps0.05": mustTol(t, 0.05), "eps0.5": mustTol(t, 0.5)}
	for _, kc := range kernelCases() {
		for tolName, tol := range tols {
			for _, minimum := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/min=%v/seed=%d", kc.name, tolName, minimum, seed)
					n := len(kc.keys)

					// Reference.
					refGens := generators(n, seed)
					refParts := make([]Participant, n)
					for i := range refParts {
						refParts[i] = Participant{ID: kc.ids[i], Key: kc.keys[i], RNG: &refGens[i]}
					}
					var refRec comm.Counter
					want := naiveRun(refParts, kc.bound, tol, &refRec, minimum)

					// Kernel over participant records.
					gens := generators(n, seed)
					parts := make([]Participant, n)
					for i := range parts {
						parts[i] = Participant{ID: kc.ids[i], Key: kc.keys[i], RNG: &gens[i]}
					}
					var rec comm.Counter
					var sc Scratch
					var got Result
					if minimum {
						got = sc.MinimumTol(parts, kc.bound, tol, &rec, nil, 0)
					} else {
						got = sc.MaximumTol(parts, kc.bound, tol, &rec, nil, 0)
					}
					checkKernel(t, name+"/parts", want, got, &refRec, &rec, refGens, gens)

					// Kernel over the flat population: node ids index the
					// arrays, so scatter the cohort to its ids.
					size := 1
					if n > 0 {
						size = kc.ids[n-1] + 1
					}
					pop := Population{Keys: make([]order.Key, size), RNGs: make([]rng.RNG, size)}
					filler := *rng.New(seed, 0xf1)
					for i := range pop.RNGs {
						pop.RNGs[i] = filler // non-members: must stay untouched
					}
					members := make([]int32, n)
					for i, g := range generators(n, seed) {
						id := kc.ids[i]
						members[i] = int32(id)
						pop.Keys[id] = kc.keys[i]
						pop.RNGs[id] = g
					}
					before := append([]int32(nil), members...)
					var flatRec comm.Counter
					got = sc.Run(pop, members, kc.bound, tol, minimum, &flatRec, nil, 0)
					flatGens := make([]rng.RNG, n)
					for i, id := range kc.ids {
						flatGens[i] = pop.RNGs[id]
					}
					checkKernel(t, name+"/flat", want, got, &refRec, &flatRec, refGens, flatGens)
					for i := range members {
						if members[i] != before[i] {
							t.Fatalf("%s: Run modified its member list at %d", name, i)
						}
					}
					for id := range pop.RNGs {
						if member := id%3 == 1 && id/3 < n; !member && pop.RNGs[id] != filler {
							t.Fatalf("%s: Run advanced non-member %d's generator", name, id)
						}
					}
				}
			}
		}
	}
}

func checkKernel(t *testing.T, name string, want, got Result, wantRec, gotRec *comm.Counter, wantGens, gotGens []rng.RNG) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: result %+v, reference %+v", name, got, want)
	}
	if gotRec.Snapshot() != wantRec.Snapshot() {
		t.Fatalf("%s: counts %+v, reference %+v", name, gotRec.Snapshot(), wantRec.Snapshot())
	}
	if gotRec.BytesSnapshot() != wantRec.BytesSnapshot() {
		t.Fatalf("%s: bytes %+v, reference %+v", name, gotRec.BytesSnapshot(), wantRec.BytesSnapshot())
	}
	for i := range wantGens {
		ws, wi := wantGens[i].State()
		gs, gi := gotGens[i].State()
		if ws != gs || wi != gi {
			t.Fatalf("%s: participant %d generator state (%#x, %#x), reference (%#x, %#x)", name, i, gs, gi, ws, wi)
		}
	}
}

// TestWarmScratchExecutionZeroAllocs pins that a repeated execution on a
// Scratch that has seen the cohort size allocates nothing, through either
// entry.
func TestWarmScratchExecutionZeroAllocs(t *testing.T) {
	const n = 4096
	parts := makeParts(n, 0, 5)
	pop := Population{Keys: make([]order.Key, n), RNGs: generators(n, 5)}
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
		pop.Keys[i] = parts[i].Key
	}
	var sc Scratch
	sc.Maximum(parts, n, comm.Discard, nil, 0) // warm
	if a := testing.AllocsPerRun(20, func() { sc.Maximum(parts, n, comm.Discard, nil, 0) }); a != 0 {
		t.Errorf("Scratch.Maximum on a warm scratch: %v allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { sc.MinimumTol(parts, n, order.Tol{}, comm.Discard, nil, 0) }); a != 0 {
		t.Errorf("Scratch.MinimumTol on a warm scratch: %v allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { sc.Run(pop, members, n, order.Tol{}, false, comm.Discard, nil, 0) }); a != 0 {
		t.Errorf("Scratch.Run on a warm scratch: %v allocs/run, want 0", a)
	}
}
