package protocol

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
)

// makeParts builds participants holding a random permutation of the keys
// base+1 .. base+n with per-node generators split from seed.
func makeParts(n int, base int64, seed uint64) []Participant {
	root := rng.New(seed, 0)
	perm := root.Perm(n)
	parts := make([]Participant, n)
	for i := 0; i < n; i++ {
		parts[i] = Participant{
			ID:  i,
			Key: order.Key(base + int64(perm[i]) + 1),
			RNG: root.Split(uint64(i)),
		}
	}
	return parts
}

func trueMax(parts []Participant) Participant {
	best := parts[0]
	for _, p := range parts {
		if p.Key > best.Key {
			best = p
		}
	}
	return best
}

func trueMin(parts []Participant) Participant {
	best := parts[0]
	for _, p := range parts {
		if p.Key < best.Key {
			best = p
		}
	}
	return best
}

// fieldMinimum runs a minimum execution over parts' keys held as a field, node i
// holding parts[i].Key: the path the engines' minimum executions take
// (Field.Run under a minimum Exec). Results name nodes by index, which is
// every participant's id here.
func fieldMinimum(parts []Participant, bound int, rec comm.Recorder) Result {
	keys := make([]order.Key, len(parts))
	for i, p := range parts {
		keys[i] = p.Key
	}
	f := KeyField(keys)
	var in InPlay
	in.EnlistExcept(len(parts), nil)
	return runOne(f, &in, 0, bound, order.Tol{}, true, rec)
}

func TestRounds(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 8: 4, 9: 5, 1024: 11}
	for n, want := range cases {
		if got := Rounds(n); got != want {
			t.Fatalf("Rounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Rounds(0)
}

func TestMaximumAlwaysCorrect(t *testing.T) {
	// Las Vegas property: across many seeds and sizes the protocol must
	// always return the true maximum.
	for seed := uint64(0); seed < 50; seed++ {
		n := int(seed%37) + 1
		parts := makeParts(n, int64(seed)*1000, seed)
		var c comm.Counter
		res := new(Scratch).Maximum(parts, n, &c, nil, 0)
		want := trueMax(parts)
		if !res.OK || res.ID != want.ID || res.Key != want.Key {
			t.Fatalf("seed %d n %d: got (%d,%d), want (%d,%d)", seed, n, res.ID, res.Key, want.ID, want.Key)
		}
	}
}

func TestMinimumAlwaysCorrect(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		n := int(seed%29) + 1
		parts := makeParts(n, -500, seed+100)
		var c comm.Counter
		res := fieldMinimum(parts, n, &c)
		want := trueMin(parts)
		if !res.OK || res.ID != want.ID || res.Key != want.Key {
			t.Fatalf("seed %d: got (%d,%d), want (%d,%d)", seed, res.ID, res.Key, want.ID, want.Key)
		}
	}
}

func TestMaximumWithLooseBound(t *testing.T) {
	// The population bound may exceed the participant count (Algorithm 1
	// invokes MAXIMUMPROTOCOL(n-k) on fewer violators). Correctness must
	// be unaffected.
	parts := makeParts(10, 0, 42)
	var c comm.Counter
	res := new(Scratch).Maximum(parts, 1000, &c, nil, 0)
	if want := trueMax(parts); res.ID != want.ID {
		t.Fatalf("loose bound broke correctness: %+v", res)
	}
	if res.Rounds != Rounds(1000) {
		t.Fatalf("rounds should follow the bound: %d", res.Rounds)
	}
}

func TestMaximumEmpty(t *testing.T) {
	var c comm.Counter
	res := new(Scratch).Maximum(nil, 5, &c, nil, 0)
	if res.OK {
		t.Fatal("empty participant set should not return OK")
	}
	if c.Total() != 0 {
		t.Fatalf("empty protocol should be free: %d msgs", c.Total())
	}
}

func TestMaximumBoundPanics(t *testing.T) {
	parts := makeParts(5, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bound below participant count")
		}
	}()
	new(Scratch).Maximum(parts, 4, comm.Discard, nil, 0)
}

func TestMaximumSingleParticipant(t *testing.T) {
	parts := makeParts(1, 7, 3)
	var c comm.Counter
	res := new(Scratch).Maximum(parts, 1, &c, nil, 0)
	if !res.OK || res.ID != 0 {
		t.Fatalf("single participant: %+v", res)
	}
	// One round with p = 1: exactly one up message, one broadcast.
	if c.Get(comm.Up) != 1 || c.Get(comm.Bcast) != 1 {
		t.Fatalf("single participant counts: %v", c.Snapshot())
	}
}

func TestMaximumExpectedMessages(t *testing.T) {
	// Theorem 4.2: E[up messages] <= 2*log2(N) + 1. Check the empirical
	// mean over many trials stays below the bound (with slack for noise).
	for _, n := range []int{16, 64, 256, 1024} {
		const trials = 300
		total := 0.0
		for trial := 0; trial < trials; trial++ {
			parts := makeParts(n, 0, uint64(n*1000+trial))
			var c comm.Counter
			new(Scratch).Maximum(parts, n, &c, nil, 0)
			total += float64(c.Get(comm.Up))
		}
		mean := total / trials
		bound := 2*math.Log2(float64(n)) + 1
		if mean > bound {
			t.Fatalf("n=%d: mean up messages %.2f exceeds theorem bound %.2f", n, mean, bound)
		}
		if mean < 1 {
			t.Fatalf("n=%d: mean %.2f implausibly low", n, mean)
		}
	}
}

func TestMaximumBroadcastCount(t *testing.T) {
	parts := makeParts(100, 0, 9)
	var c comm.Counter
	res := new(Scratch).Maximum(parts, 100, &c, nil, 0)
	if want := int64(Rounds(100)); c.Get(comm.Bcast) != want {
		t.Fatalf("broadcasts = %d, want %d", c.Get(comm.Bcast), want)
	}
	if res.Rounds != Rounds(100) {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestMaximumTraceEvents(t *testing.T) {
	parts := makeParts(8, 0, 5)
	tr := comm.NewTrace(1000)
	new(Scratch).Maximum(parts, 8, comm.Discard, tr, 7)
	if tr.Len() == 0 {
		t.Fatal("trace should capture events")
	}
	for _, e := range tr.Events() {
		if e.Step != 7 {
			t.Fatalf("event step not tagged: %+v", e)
		}
	}
}

func TestSamplerDeactivation(t *testing.T) {
	at := coinAt{seed: 1, id: 1}
	s := NewSampler(10, 4)
	if !s.Active() {
		t.Fatal("fresh sampler should be active")
	}
	// A broadcast best above the key deactivates without sending.
	if s.Round(20, 0, at) {
		t.Fatal("dominated node must not send")
	}
	if s.Active() {
		t.Fatal("dominated node must deactivate")
	}
	// Subsequent rounds are inert.
	if s.Round(order.NegInf, 3, at) {
		t.Fatal("inactive sampler must not send")
	}
}

func TestSamplerFinalRoundSends(t *testing.T) {
	at := coinAt{seed: 2, id: 2}
	// Final round for bound 8 is r = 3 with p = 1.
	s := NewSampler(10, 8)
	if !s.Round(order.NegInf, 3, at) {
		t.Fatal("final round has p=1 and must send")
	}
	if s.Active() {
		t.Fatal("sender must deactivate")
	}
}

func TestSamplerBoundaryEqualBest(t *testing.T) {
	at := coinAt{seed: 3, id: 3}
	// best == key keeps the node active (strict comparison in the paper).
	s := NewSampler(10, 1)
	if !s.Round(10, 0, at) {
		t.Fatal("bound 1 round 0 has p=1; node with key == best must still send")
	}
}

func TestSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(1, 0)
}

func TestTopExtractDescending(t *testing.T) {
	parts := makeParts(20, 0, 11)
	var c comm.Counter
	res := TopExtract(parts, 5, 20, &c, nil, 0)
	if len(res) != 5 {
		t.Fatalf("extracted %d, want 5", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Key >= res[i-1].Key {
			t.Fatalf("not descending: %+v", res)
		}
	}
	// Must be the true top-5.
	want := append([]Participant(nil), parts...)
	for i := 0; i < len(want); i++ {
		for j := i + 1; j < len(want); j++ {
			if want[j].Key > want[i].Key {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	for i := 0; i < 5; i++ {
		if res[i].ID != want[i].ID {
			t.Fatalf("rank %d: got node %d, want %d", i, res[i].ID, want[i].ID)
		}
	}
}

func TestTopExtractMoreThanAvailable(t *testing.T) {
	parts := makeParts(3, 0, 12)
	res := TopExtract(parts, 10, 3, comm.Discard, nil, 0)
	if len(res) != 3 {
		t.Fatalf("extracted %d, want all 3", len(res))
	}
}

func TestTopExtractZero(t *testing.T) {
	parts := makeParts(3, 0, 13)
	if res := TopExtract(parts, 0, 3, comm.Discard, nil, 0); len(res) != 0 {
		t.Fatalf("zero extraction returned %d", len(res))
	}
}

func TestTopExtractNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TopExtract(nil, -1, 1, comm.Discard, nil, 0)
}

func TestGatherAllCounts(t *testing.T) {
	parts := makeParts(25, 0, 14)
	var c comm.Counter
	res := GatherAll(parts, &c, nil, 0)
	if want := trueMax(parts); res.ID != want.ID {
		t.Fatalf("gather wrong winner: %+v", res)
	}
	if c.Get(comm.Up) != 25 || c.Get(comm.Bcast) != 1 {
		t.Fatalf("gather counts: %v", c.Snapshot())
	}
}

func TestGatherAllEmpty(t *testing.T) {
	if res := GatherAll(nil, comm.Discard, nil, 0); res.OK {
		t.Fatal("empty gather should not be OK")
	}
}

func TestSequentialMaximaCorrectAndLogarithmic(t *testing.T) {
	const n, trials = 1024, 200
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		parts := makeParts(n, 0, uint64(5000+trial))
		var c comm.Counter
		res := SequentialMaxima(parts, &c, nil, 0)
		if want := trueMax(parts); res.ID != want.ID {
			t.Fatalf("sequential maxima wrong winner")
		}
		total += float64(c.Get(comm.Up))
	}
	mean := total / trials
	// Expected number of left-to-right maxima is H_n ≈ ln n ≈ 6.93.
	want := math.Log(float64(n))
	if mean < want-1.5 || mean > want+2.5 {
		t.Fatalf("left-to-right maxima mean %.2f far from H_n ≈ %.2f", mean, want)
	}
}

func TestSequentialMaximaEmpty(t *testing.T) {
	if res := SequentialMaxima(nil, comm.Discard, nil, 0); res.OK {
		t.Fatal("empty should not be OK")
	}
}

func TestDomainSearchCorrect(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		n := int(seed%15) + 1
		parts := makeParts(n, 100, seed)
		var c comm.Counter
		res := DomainSearch(parts, 0, 2000, &c, nil, 0)
		if want := trueMax(parts); res.ID != want.ID || res.Key != want.Key {
			t.Fatalf("seed %d: domain search wrong: %+v want %+v", seed, res, want)
		}
	}
}

func TestDomainSearchPanics(t *testing.T) {
	parts := makeParts(3, 100, 1)
	for i, f := range []func(){
		func() { DomainSearch(parts, 10, 5, comm.Discard, nil, 0) },
		func() { DomainSearch(parts, 0, 50, comm.Discard, nil, 0) }, // keys outside domain
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDomainSearchEmpty(t *testing.T) {
	if res := DomainSearch(nil, 0, 10, comm.Discard, nil, 0); res.OK {
		t.Fatal("empty should not be OK")
	}
}

func TestMaximumPropertyRandomKeys(t *testing.T) {
	// Arbitrary (possibly negative, non-contiguous) distinct keys.
	r := rng.New(99, 0)
	check := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		used := make(map[order.Key]bool)
		parts := make([]Participant, n)
		for i := 0; i < n; i++ {
			k := order.Key(r.Int63n(1<<40) - 1<<39)
			for used[k] {
				k++
			}
			used[k] = true
			parts[i] = Participant{ID: i, Key: k, RNG: r.Split(uint64(i) + 1)}
		}
		res := new(Scratch).Maximum(parts, n, comm.Discard, nil, 0)
		return res.OK && res.ID == trueMax(parts).ID
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximumDeterministicGivenSeeds(t *testing.T) {
	// Identical participants (same RNG seeds) must reproduce identical
	// message counts — the property the engine-equivalence tests rely on.
	mk := func() []Participant { return makeParts(64, 0, 777) }
	var c1, c2 comm.Counter
	new(Scratch).Maximum(mk(), 64, &c1, nil, 0)
	new(Scratch).Maximum(mk(), 64, &c2, nil, 0)
	if c1.Snapshot() != c2.Snapshot() {
		t.Fatalf("non-deterministic counts: %v vs %v", c1.Snapshot(), c2.Snapshot())
	}
}
