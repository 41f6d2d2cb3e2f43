package protocol

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Sampler is the one-node reference of an Algorithm 2 execution: the
// per-node state machine the engines carried before executions kept only
// who is still in play. It lives here so the kernel is checked against an
// implementation that shares no code with it but the trial's definition
// (rng.Coin, of which it builds one per node per round, where the kernel
// builds one per round), and the TestSampler* cases pin the reference's own
// semantics.
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

// coinAt names whose coins a reference flips: the node of coin identity id
// in the execution (step, tag 0) under seed.
type coinAt struct {
	seed uint64
	step int64
	id   uint64
}

// Round processes round r given the best key broadcast so far and reports
// whether the node sends its key this round.
func (s *Sampler) Round(best order.Key, r uint, at coinAt) bool {
	if !s.active {
		return false
	}
	if s.tol.WidenHi(best) > s.key {
		s.active = false
		return false
	}
	if coin := rng.NewCoin(at.seed, at.step, 0, r, s.bound); coin.Hit(at.id) {
		s.active = false
		return true
	}
	return false
}

// drawIdents is what an execution over participant records takes of their
// generators: one draw each, in slice order, the participant's coin
// identity for that execution.
func drawIdents(parts []Participant) []uint64 {
	ident := make([]uint64, len(parts))
	for i, p := range parts {
		ident[i] = p.RNG.Uint64()
	}
	return ident
}

// fieldIdents are the coin identities of a field's nodes: their ids.
func fieldIdents(ids []int) []uint64 {
	ident := make([]uint64, len(ids))
	for i, id := range ids {
		ident[i] = uint64(id)
	}
	return ident
}

// naiveRun is the every-node-every-round reference execution: one Sampler
// per participant, all of them consulted in every round, participant i
// flipping the coins of identity ident[i] under seed.
func naiveRun(parts []Participant, ident []uint64, seed uint64, bound int, tol order.Tol, rec comm.Recorder, minimum bool) Result {
	return naiveSweep(parts, ident, seed, bound, 1, tol, rec, minimum).Result()
}

// naiveSweep is naiveRun for the want best keys; it returns the finished
// driver.
func naiveSweep(parts []Participant, ident []uint64, seed uint64, bound, want int, tol order.Tol, rec comm.Recorder, minimum bool) *Exec {
	if len(parts) == 0 {
		return new(Exec)
	}
	samplers := make([]Sampler, len(parts))
	for i, p := range parts {
		k := p.Key
		if minimum {
			k = order.Neg(k)
		}
		samplers[i] = NewSamplerTol(k, bound, tol)
	}
	ex := NewExec(bound, want, minimum, rec, nil, 0)
	for ex.More() {
		r, best := ex.Round(), ex.Best()
		for i, p := range parts {
			if samplers[i].Round(best, uint(r), coinAt{seed: seed, id: ident[i]}) {
				ex.Bid(p.ID, p.Key)
			}
		}
		ex.EndRound()
	}
	return &ex
}

// runOne is one single-winner execution over the nodes in play, on a driver
// of its own.
func runOne(f Field[int64], in *InPlay, seed uint64, bound int, tol order.Tol, minimum bool, rec comm.Recorder) Result {
	ex := NewExec(bound, 1, minimum, rec, nil, 0)
	f.Run(in, &ex, tol, seed)
	return ex.Result()
}

// kernelCase is one cohort of the equivalence matrix, over a field of size
// nodes: the members' ids strictly increasing, their keys by ascending
// member position. A dense case enlists the cohort as the field minus its
// non-members (EnlistExcept), the others as an id list (Enlist).
type kernelCase struct {
	name  string
	size  int
	ids   []int
	keys  []order.Key
	bound int
	dense bool
}

func kernelCases() []kernelCase {
	var cases []kernelCase
	// Sparse cohorts: ids 1, 4, 7, … of a field that ends with the last.
	add := func(name string, keys []order.Key, bound int) {
		ids := make([]int, len(keys))
		for i := range ids {
			ids[i] = 3*i + 1
		}
		size := 1
		if len(ids) > 0 {
			size = ids[len(ids)-1] + 1
		}
		cases = append(cases, kernelCase{name: name, size: size, ids: ids, keys: keys, bound: bound})
	}
	add("empty", nil, 4)
	add("one", []order.Key{7}, 1)
	add("two", []order.Key{7, 9}, 2)
	add("two-tied", []order.Key{5, 5}, 2)
	add("all-tied", []order.Key{4, 4, 4, 4, 4, 4, 4, 4, 4}, 9)
	add("sentinels", []order.Key{order.NegInf, 3, order.PosInf, order.NegInf, order.PosInf}, 5)
	add("wide-bound", []order.Key{8, 1, 8, 3, 2, 9, 9}, 1<<33+5)
	add("wide-pow2-bound", []order.Key{8, 1, 8, 3, 2, 9, 9}, 1<<34)
	r := rng.New(99, 7)
	for _, n := range []int{3, 17, 64, 257, 1000} {
		distinct := make([]order.Key, n)
		for i, p := range r.Perm(n) {
			distinct[i] = order.Key(1000 + 10*int64(p))
		}
		add(fmt.Sprintf("distinct-%d", n), distinct, n)
		add(fmt.Sprintf("distinct-%d-loose", n), distinct, 6*n+3)
		dups := make([]order.Key, n)
		for i := range dups {
			dups[i] = order.Key(1000 + r.Int63n(int64(n/3+1)))
		}
		add(fmt.Sprintf("dups-%d", n), dups, n)
		add(fmt.Sprintf("dups-%d-loose", n), dups, n+n/2+1)
		neg := make([]order.Key, n)
		for i := range neg {
			neg[i] = order.Key(r.Int63n(2001) - 1000)
		}
		add(fmt.Sprintf("signed-%d", n), neg, n+1)
	}
	// Dense-complement cohorts: the whole field but a short skip list, at
	// sizes on and off the 64-node word and the 4096-node head word.
	for _, size := range []int{1, 63, 64, 65, 100, 128, 1000, 4096, 4097, 4200} {
		for _, skips := range []int{0, 1, 5} {
			if skips >= size {
				continue
			}
			skip := map[int]bool{}
			if skips > 0 {
				skip[0] = true
			}
			if skips > 1 {
				skip[size-1] = true
			}
			for len(skip) < skips {
				skip[r.Intn(size)] = true
			}
			c := kernelCase{name: fmt.Sprintf("dense-%d-skip%d", size, skips), size: size, dense: true}
			for id := 0; id < size; id++ {
				if !skip[id] {
					c.ids = append(c.ids, id)
					c.keys = append(c.keys, order.Key(r.Int63n(int64(size/2+2))))
				}
			}
			for _, bound := range []int{len(c.ids), size, size + 37} {
				c.bound = bound
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// enlist puts kc's cohort in play the way the case says.
func (kc *kernelCase) enlist(in *InPlay) {
	if !kc.dense {
		in.Enlist(kc.size, kc.ids)
		return
	}
	var skip []int
	next := 0
	for id := 0; id < kc.size; id++ {
		if next < len(kc.ids) && kc.ids[next] == id {
			next++
		} else {
			skip = append(skip, id)
		}
	}
	in.EnlistExcept(kc.size, skip)
}

// field returns a field of kc.size nodes holding kc's keys at kc's ids.
func (kc *kernelCase) field() Field[int64] {
	keys := make([]order.Key, kc.size)
	for i, id := range kc.ids {
		keys[id] = kc.keys[i]
	}
	return KeyField(keys)
}

// fieldKey returns node i's key in f.
func fieldKey[V int32 | int64](f Field[V], i int) order.Key {
	return order.Key(int64(f.Vals[i])*f.Mul + f.Tie - int64(i))
}

// subField returns nodes [lo, hi) of f as a field of their own, node lo
// its node 0.
func subField[V int32 | int64](f Field[V], lo, hi int) Field[V] {
	return Field[V]{Vals: f.Vals[lo:hi], Mul: f.Mul, Tie: f.Tie - int64(lo)}
}

// parts returns kc's cohort as participant records, member id drawing
// from child id of one seeded root, and the generators.
func (kc *kernelCase) parts(seed uint64) ([]Participant, []rng.RNG) {
	root := rng.New(seed, 0x6b)
	gens := make([]rng.RNG, len(kc.ids))
	parts := make([]Participant, len(kc.ids))
	for i, id := range kc.ids {
		gens[i] = *root.Split(uint64(id))
		parts[i] = Participant{ID: id, Key: kc.keys[i], RNG: &gens[i]}
	}
	return parts, gens
}

// runRecords is Scratch.Maximum in either sense and under any tolerance:
// the records' keys, and one draw of each generator for its coin identity,
// gathered into a field that Field.Run's kernel runs whole.
func runRecords(parts []Participant, bound int, tol order.Tol, minimum bool, rec comm.Recorder) Result {
	keys := make([]order.Key, len(parts))
	for i, p := range parts {
		keys[i] = p.Key
	}
	f := KeyField(keys)
	f.ids = drawIdents(parts)
	var in InPlay
	in.EnlistExcept(len(parts), nil)
	ex := NewExec(bound, 1, minimum, rec, nil, 0)
	f.run(&in, &ex, tol, 0, parts)
	return ex.Result()
}

func mustTol(t testing.TB, eps float64) order.Tol {
	t.Helper()
	tol, err := order.NewTol(eps)
	if err != nil {
		t.Fatal(err)
	}
	return tol
}

// TestKernelMatchesNaiveReference runs every cohort through the naive
// reference and through both entries of the kernel — participant records,
// whose coin identities are one draw of each record's generator, and the
// field, whose identities are the node ids — and demands the same Result,
// the same message and byte charges, and of the records the same final
// state of every participant's generator: the kernel may skip the visits
// that would have found a node inactive, and nothing else. The parent
// commit's compacting loop (refloop_test.go) is held to the same on both
// entries, so the three implementations agree pairwise.
func TestKernelMatchesNaiveReference(t *testing.T) {
	tols := map[string]order.Tol{"exact": {}, "eps0.05": mustTol(t, 0.05), "eps0.5": mustTol(t, 0.5)}
	for _, kc := range kernelCases() {
		for tolName, tol := range tols {
			for _, minimum := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/bound=%d/%s/min=%v/seed=%d", kc.name, kc.bound, tolName, minimum, seed)

					// Reference over the records.
					refParts, refGens := kc.parts(seed)
					var refRec comm.Counter
					want := naiveRun(refParts, drawIdents(refParts), 0, kc.bound, tol, &refRec, minimum)

					// The parent's compacting loop.
					loopParts, loopGens := kc.parts(seed)
					var loopRec comm.Counter
					got := refRunParts(loopParts, kc.bound, tol, &loopRec, nil, 0, minimum, nil)
					checkKernel(t, name+"/parent-loop", want, got, &refRec, &loopRec, refGens, loopGens)

					// Kernel over participant records.
					parts, gens := kc.parts(seed)
					var rec comm.Counter
					if minimum || !tol.Zero() {
						got = runRecords(parts, kc.bound, tol, minimum, &rec)
					} else {
						got = new(Scratch).Maximum(parts, kc.bound, &rec, nil, 0)
					}
					checkKernel(t, name+"/parts", want, got, &refRec, &rec, refGens, gens)

					// Reference, parent's loop and kernel over the field.
					refRec.Reset()
					want = naiveRun(refParts, fieldIdents(kc.ids), seed, kc.bound, tol, &refRec, minimum)
					f := kc.field()
					keys := make([]order.Key, kc.size)
					for id := range keys {
						keys[id] = fieldKey(f, id)
					}
					members := make([]int32, len(kc.ids))
					for i, id := range kc.ids {
						members[i] = int32(id)
					}
					loopRec.Reset()
					got = new(refScratch).Run(Population{Keys: keys, Seed: seed}, members, kc.bound, tol, minimum, &loopRec, nil, 0)
					checkKernel(t, name+"/parent-loop-field", want, got, &refRec, &loopRec, nil, nil)
					var in InPlay
					kc.enlist(&in)
					if in.Len() != len(kc.ids) {
						t.Fatalf("%s: %d nodes enlisted, cohort has %d", name, in.Len(), len(kc.ids))
					}
					var flatRec comm.Counter
					got = runOne(f, &in, seed, kc.bound, tol, minimum, &flatRec)
					checkKernel(t, name+"/field", want, got, &refRec, &flatRec, nil, nil)
					if in.Len() != 0 || len(in.AppendTo(nil)) != 0 {
						t.Fatalf("%s: %d nodes (%v) still in play after the execution", name, in.Len(), in.AppendTo(nil))
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
// Scratch that has seen the cohort size, or on a field whose in-play set
// has, allocates nothing.
func TestWarmScratchExecutionZeroAllocs(t *testing.T) {
	const n = 4096
	parts := makeParts(n, 0, 5)
	keys := make([]order.Key, n)
	for i := range parts {
		keys[i] = parts[i].Key
	}
	f := KeyField(keys)
	var sc Scratch
	sc.Maximum(parts, n, comm.Discard, nil, 0) // warm
	if a := testing.AllocsPerRun(20, func() { sc.Maximum(parts, n, comm.Discard, nil, 0) }); a != 0 {
		t.Errorf("Scratch.Maximum on a warm scratch: %v allocs/run, want 0", a)
	}
	var in InPlay
	skip := []int{3, 70}
	var ex Exec
	run := func() {
		for _, minimum := range []bool{false, true} {
			in.EnlistExcept(n, skip)
			ex.Begin(n, 9, minimum, comm.Discard, nil, 0)
			f.Run(&in, &ex, order.Tol{}, 5)
		}
	}
	run() // warm
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Errorf("Field.Run on a warm in-play set: %v allocs/run, want 0", a)
	}
}

// TestNarrowFieldSendsWhatWideSends runs one execution over a field of
// int32 values and over the same values held as int64, and over fields of
// packed 24-bit and 48-bit values and the same held as int64 — under the tie-break
// injection, with ties, at both ends of each narrow width, in either sense
// and at several offsets of the field's first node — and demands the same
// sends, round for round, and the same winners: a column's width changes
// nothing but its bytes.
func TestNarrowFieldSendsWhatWideSends(t *testing.T) {
	const n = 300
	r := rng.New(9, 2)
	for _, base := range []int{0, 1, 64, 1000} {
		total := int64(base + n)
		narrow := Field[int32]{Vals: make([]int32, n), Mul: total, Tie: total - 1 - int64(base)}
		wide := Field[int64]{Vals: make([]int64, n), Mul: total, Tie: total - 1 - int64(base)}
		for i := range narrow.Vals {
			v := []int32{math.MaxInt32, math.MinInt32, 0, -1, int32(r.Intn(20))}[r.Intn(5)]
			narrow.Vals[i], wide.Vals[i] = v, int64(v)
		}
		sendsAlike(t, fmt.Sprintf("base %d, int32", base), narrow, wide, base)
		packed := Field[wire.Int48]{Vals: make([]wire.Int48, n), Mul: total, Tie: total - 1 - int64(base)}
		for i := range packed.Vals {
			v := []int64{1<<47 - 1, -1 << 47, 1 << 31, 0, -1, int64(r.Intn(20))}[r.Intn(6)]
			wire.Store(packed.Vals, i, v)
			wide.Vals[i] = v
		}
		sendsAlike(t, fmt.Sprintf("base %d, int48", base), packed, wide, base)
		// Its last entry is read with narrow loads, the others with one
		// 4-byte load each.
		small := Field[wire.Int24]{Vals: make([]wire.Int24, n), Mul: total, Tie: total - 1 - int64(base)}
		for i := range small.Vals {
			v := []int64{1<<23 - 1, -1 << 23, 1 << 16, 0, -1, int64(r.Intn(20))}[r.Intn(6)]
			wire.Store(small.Vals, i, v)
			wide.Vals[i] = v
		}
		sendsAlike(t, fmt.Sprintf("base %d, int24", base), small, wide, base)
	}
}

// sendsAlike runs one execution over narrow and over wide, fields of the
// same values, in either sense, and fails unless they send alike.
func sendsAlike[V wire.Value](t *testing.T, where string, narrow Field[V], wide Field[int64], base int) {
	t.Helper()
	n := len(wide.Vals)
	for _, minimum := range []bool{false, true} {
		run := func(round func(in *InPlay, coin *rng.Coin, cut order.Key, send func(int, order.Key))) string {
			var in InPlay
			in.EnlistExcept(n, []int{3})
			ex := NewExec(n, 3, minimum, comm.Discard, nil, 0)
			out := ""
			for ex.More() {
				coin := rng.NewCoin(4, 0, 0, uint(ex.Round()), uint64(n))
				round(&in, &coin, ex.Best(), func(id int, key order.Key) {
					out += fmt.Sprintf("%d:%d ", id, key)
					ex.Bid(id, key)
				})
				ex.EndRound()
				out += "| "
			}
			return fmt.Sprint(out, ex.Winners())
		}
		got := run(func(in *InPlay, coin *rng.Coin, cut order.Key, send func(int, order.Key)) {
			narrow.Round(in, coin, cut, minimum, base, send)
		})
		want := run(func(in *InPlay, coin *rng.Coin, cut order.Key, send func(int, order.Key)) {
			wide.Round(in, coin, cut, minimum, base, send)
		})
		if got != want {
			t.Fatalf("%s, minimum %v: the narrow field sends %s, the wide %s", where, minimum, got, want)
		}
	}
}

// BenchmarkFieldRun times one maximum execution over a whole field of a
// monitor's keys — values 1..n in a random order under the tie-break
// injection — under a power-of-two bound (no thinning) and a general one
// (thinned): over a column of int64 values, of int32 values (the rows
// ending /narrow), of packed 24-bit values (the rows ending /int24) and of
// packed 48-bit values (the rows ending /int48), the four widths a node
// bank keeps.
func BenchmarkFieldRun(b *testing.B) {
	for _, n := range []int{4096, 1 << 16, 1 << 20} {
		wide := Field[int64]{Vals: make([]int64, n), Mul: int64(n), Tie: int64(n - 1)}
		narrow := Field[int32]{Vals: make([]int32, n), Mul: int64(n), Tie: int64(n - 1)}
		small := Field[wire.Int24]{Vals: make([]wire.Int24, n), Mul: int64(n), Tie: int64(n - 1)}
		packed := Field[wire.Int48]{Vals: make([]wire.Int48, n), Mul: int64(n), Tie: int64(n - 1)}
		for i, p := range rng.New(6, 1).Perm(n) {
			wide.Vals[i], narrow.Vals[i] = int64(p+1), int32(p+1)
			wire.Store(small.Vals, i, int64(p+1))
			wire.Store(packed.Vals, i, int64(p+1))
		}
		for _, bound := range []int{n, n + n/3} {
			name := fmt.Sprintf("n=%d/bound=%d", n, bound)
			b.Run(name, func(b *testing.B) { benchFieldRun(b, wide, bound) })
			b.Run(name+"/narrow", func(b *testing.B) { benchFieldRun(b, narrow, bound) })
			b.Run(name+"/int24", func(b *testing.B) { benchFieldRun(b, small, bound) })
			b.Run(name+"/int48", func(b *testing.B) { benchFieldRun(b, packed, bound) })
		}
	}
}

func benchFieldRun[V wire.Value](b *testing.B, f Field[V], bound int) {
	var in InPlay
	var ex Exec
	n := len(f.Vals)
	for i := 0; i < b.N; i++ {
		in.EnlistExcept(n, nil)
		ex.Begin(bound, 1, false, comm.Discard, nil, int64(i))
		f.Run(&in, &ex, order.Tol{}, 5)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
}

// BenchmarkScratchMaximum times the same execution through participant
// records, gather and scatter included.
func BenchmarkScratchMaximum(b *testing.B) {
	for _, n := range []int{16, 4096, 1 << 16, 1 << 20} {
		parts := makeParts(n, 0, 5)
		var sc Scratch
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.Maximum(parts, n, comm.Discard, nil, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}

// FuzzRoundKernel holds the kernel to the naive reference on cohorts the
// fuzzer shapes: keys with ties and both sentinels, sparse id lists and
// dense complements of skip lists over fields on and off the 64-node word,
// either sense, any tolerance, bounds from the cohort size up past 2^32,
// and any number of winners wanted — and, where the execution is exact,
// the winners to sort-and-take: their keys are the want best of the cohort
// in order, each held by a distinct member. And the field cut at any
// offset, 64-aligned or not, into two views with in-play sets of their own
// sends, round for round, exactly what the whole field sends (partSends):
// under the −∞ cut of round 0 and the finite ones after it, in either
// sense, and in the sparse rounds before the 2^-6 switch as in the
// compacting ones after it. And the split and replay of a networked
// execution (replaySends): the field cut at any two offsets into parts that
// each run the whole execution against a cut of their own, their bid logs
// replayed against the true cut, delivers in every round exactly what the
// whole field sends.
func FuzzRoundKernel(f *testing.F) {
	f.Add([]byte{0, 255, 7, 7, 9, 1, 200}, uint16(70), uint64(0), uint8(0), uint64(1), uint16(0), uint16(33), uint16(9))
	f.Add([]byte{3, 3, 3, 3}, uint16(64), uint64(1), uint8(1|4), uint64(2), uint16(2), uint16(64), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(4100), uint64(1<<33), uint8(1|8), uint64(3), uint16(16), uint16(2049), uint16(1000))
	f.Add([]byte{255, 0}, uint16(129), uint64(77), uint8(4|16), uint64(4), uint16(200), uint16(127), uint16(2))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5}, uint16(300), uint64(0), uint8(1), uint64(5), uint16(8), uint16(0), uint16(150))
	f.Add([]byte{40, 41, 42, 43, 44, 45, 46, 47}, uint16(500), uint64(3), uint8(1|8|16), uint64(6), uint16(0), uint16(130), uint16(190))
	f.Fuzz(func(t *testing.T, data []byte, size16 uint16, slack uint64, flags uint8, seed uint64, want16, split16, split2 uint16) {
		if len(data) == 0 {
			t.Skip()
		}
		at := func(i int) byte { return data[i%len(data)] }
		kc := kernelCase{size: 1 + int(size16)%4200, dense: flags&1 != 0}
		for id := 0; id < kc.size; id++ {
			pick := at(3*id + 1)
			if member := pick&1 != 0; kc.dense {
				member = pick&31 != 0
				if !member {
					continue
				}
			} else if !member {
				continue
			}
			key := order.Key(at(id)) // few values: ties everywhere
			switch at(id) {
			case 0:
				key = order.NegInf
			case 255:
				key = order.PosInf
			}
			kc.ids, kc.keys = append(kc.ids, id), append(kc.keys, key)
		}
		kc.bound = max(len(kc.ids), 1) + int(slack%(1<<40))
		minimum := flags&4 != 0
		tol := mustTol(t, []float64{0, 0.05, 0.5, 0.9}[flags>>3&3])
		want := 1 + int(want16)%(len(kc.ids)+2) // up to one more than there are

		refParts, _ := kc.parts(seed)
		var refRec, rec comm.Counter
		ref := naiveSweep(refParts, fieldIdents(kc.ids), seed, kc.bound, want, tol, &refRec, minimum)

		fld := kc.field()
		var in InPlay
		in.Enlist(kc.size, []int{0}) // stale members must not survive the enlistment
		kc.enlist(&in)
		ex := NewExec(kc.bound, want, minimum, &rec, nil, 0)
		fld.Run(&in, &ex, tol, seed)
		member := make([]bool, kc.size)
		for _, id := range kc.ids {
			member[id] = true
		}
		if ex.Result() != ref.Result() || !slices.Equal(ex.Winners(), ref.Winners()) || rec.Snapshot() != refRec.Snapshot() || rec.BytesSnapshot() != refRec.BytesSnapshot() {
			t.Fatalf("winners %+v charges %v/%v, reference %+v %v/%v", ex.Winners(), rec.Snapshot(), rec.BytesSnapshot(), ref.Winners(), refRec.Snapshot(), refRec.BytesSnapshot())
		}
		if tol.Zero() {
			sorted := slices.Clone(kc.keys)
			slices.Sort(sorted)
			if !minimum {
				slices.Reverse(sorted)
			}
			sorted = sorted[:min(want, len(sorted))]
			won := map[int]bool{}
			for i, w := range ex.Winners() {
				if i >= len(sorted) || w.Key != int64(sorted[i]) || !member[w.ID] || int64(fieldKey(fld, w.ID)) != w.Key || won[w.ID] {
					t.Fatalf("winners %+v are not the %d best keys %v of the cohort, each of a member of its own", ex.Winners(), want, sorted)
				}
				won[w.ID] = true
			}
			if len(ex.Winners()) != len(sorted) {
				t.Fatalf("%d winners for want %d of a cohort of %d", len(ex.Winners()), want, len(kc.ids))
			}
		}
		if in.Len() != 0 || len(in.AppendTo(nil)) != 0 {
			t.Fatalf("nodes %v still in play after the execution", in.AppendTo(nil))
		}
		a := int(split16) % (kc.size + 1)
		whole, split := partSends(&kc, []int{0, kc.size}, want, seed, tol, minimum), partSends(&kc, []int{0, a, kc.size}, want, seed, tol, minimum)
		if !slices.Equal(whole, split) {
			t.Fatalf("split at %d, the rounds send %v; the whole field sends %v", a, split, whole)
		}
		b := a + int(split2)%(kc.size-a+1)
		if replayed := replaySends(&kc, []int{0, a, b, kc.size}, want, seed, tol, minimum); !slices.Equal(whole, replayed) {
			t.Fatalf("split at %d and %d and replayed, the rounds deliver %v; the whole field sends %v", a, b, replayed, whole)
		}
	})
}

// replaySends drives the execution partSends does the way the networked
// engine does: each view of the field cut at the offsets cuts runs every
// round itself, exactly, against its own cut — the want-th best of its own
// bids — with the global bound, and logs its bids (wire.BidLogWriter); the
// logs are replayed against the true cut (Exec.Replay), and every round's
// deliveries come back as partSends returns its sends.
func replaySends(kc *kernelCase, cuts []int, want int, seed uint64, tol order.Tol, minimum bool) []string {
	fld := kc.field()
	logs := make([]wire.BidLog, len(cuts)-1)
	for v := range logs {
		lo, hi := cuts[v], cuts[v+1]
		var ids []int
		for _, id := range kc.ids {
			if id >= lo && id < hi {
				ids = append(ids, id-lo)
			}
		}
		var in InPlay
		in.Enlist(hi-lo, ids)
		own := NewExec(kc.bound, want, minimum, comm.Discard, nil, 0)
		var w wire.BidLogWriter
		w.Begin(nil, lo)
		for own.More() {
			r := own.Round()
			coin := rng.NewCoin(seed, 0, 0, uint(r), uint64(kc.bound))
			subField(fld, lo, hi).Round(&in, &coin, own.Best(), minimum, lo, func(id int, key order.Key) {
				own.Bid(id, key)
				w.Add(r, id, int64(key))
			})
			own.EndRound()
		}
		if err := logs[v].Open(w.End(), lo, hi, Rounds(kc.bound)); err != nil {
			panic(fmt.Sprintf("view [%d, %d) wrote a log it cannot open: %v", lo, hi, err))
		}
	}
	tr := comm.NewTrace(len(kc.ids) + 2*Rounds(kc.bound))
	ex := NewExec(kc.bound, want, minimum, comm.Discard, tr, 0)
	ex.Replay(logs, tol, nil)
	var rounds []string
	line := ""
	for _, e := range tr.Events() {
		if e.Kind == comm.Bcast {
			rounds, line = append(rounds, line), ""
			continue
		}
		line += fmt.Sprintf("%d:%d ", e.From, e.Payload)
	}
	return rounds
}

// partSends drives one execution of want winners over kc's cohort with its
// field cut at the offsets cuts into views of their own — keys and in-play
// set each, node 0 of a view at global id its offset, each round run view
// by view in order — and returns every round's sends, the empty round
// included, as one line a round.
func partSends(kc *kernelCase, cuts []int, want int, seed uint64, tol order.Tol, minimum bool) []string {
	fld := kc.field()
	views := make([]InPlay, len(cuts)-1)
	for v := range views {
		var ids []int
		for _, id := range kc.ids {
			if id >= cuts[v] && id < cuts[v+1] {
				ids = append(ids, id-cuts[v])
			}
		}
		views[v].Enlist(cuts[v+1]-cuts[v], ids)
	}
	ex := NewExec(kc.bound, want, minimum, comm.Discard, nil, 0)
	var rounds []string
	for ex.More() {
		coin := rng.NewCoin(seed, 0, 0, uint(ex.Round()), uint64(kc.bound))
		cut, line := tol.WidenHi(ex.Best()), ""
		for v := range views {
			subField(fld, cuts[v], cuts[v+1]).Round(&views[v], &coin, cut, minimum, cuts[v], func(id int, key order.Key) {
				line += fmt.Sprintf("%d:%d ", id, key)
				ex.Bid(id, key)
			})
		}
		ex.EndRound()
		rounds = append(rounds, line)
	}
	return rounds
}

// TestSparseCohortDoesNotPayForTheField pins the in-play set's second
// level: an execution over 16 members of a 2^20-node field visits the
// members and the field's 256 head words, not its 16384 words — it must
// stay within a small multiple of the same execution over a 2^12-node
// field (it reads 2-3 times), where a one-level set, scanning 16384 words
// a round, would cost well over fifty times more. Timings are the minimum
// of many runs, and the bound sits far from either reading.
func TestSparseCohortDoesNotPayForTheField(t *testing.T) {
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = 251 * i
	}
	cost := func(n int) time.Duration {
		keys := make([]order.Key, n)
		for _, id := range ids {
			keys[id] = order.Key(id%7 + 1)
		}
		f := KeyField(keys)
		var in InPlay
		best := time.Duration(math.MaxInt64)
		for run := 0; run < 300; run++ {
			start := time.Now()
			for rep := 0; rep < 20; rep++ {
				in.Enlist(n, ids)
				runOne(f, &in, 5, len(ids), order.Tol{}, false, comm.Discard)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(1<<12), cost(1<<20)
	t.Logf("16 members: %v over 2^12 nodes, %v over 2^20 nodes (20 executions each)", small, large)
	if large > 30*small {
		t.Fatalf("a 16-member execution costs %v over 2^20 nodes and %v over 2^12: it pays for the field", large, small)
	}
}
