package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/wire"
)

// Checkpoint/restore for the sans-I/O coordinator. A checkpoint is taken
// between steps (the machine idle, no protocol execution in flight) and
// captures exactly the state the next step reads: configuration, step
// counter, statistics, T+/T− bounds, membership and the message ledger
// for the Machine; per-node keys, the installed bounds and membership bits
// for a Nodes bank (its coins are a function of the seed the envelope
// carries). Everything else — the reset scratch of the Machine; the bank's
// in-play set, empty between executions, and its violator lists, which
// are only read inside the step that wrote them — is
// (re)initialized before its next use, so a restored coordinator resumes
// bit-identically to one that never stopped: same reports, same counts,
// same coins. The equivalence tests in snapshot_test.go pin that property.

// Snapshot appends the machine's canonical checkpoint frame
// (wire.MachineState) to dst. It fails if a step is in flight — mid-step
// state references substrate interactions that cannot be serialized — and
// in the ordered mode, whose band the frame has no section for yet.
func (m *Machine) Snapshot(dst []byte) ([]byte, error) {
	if m.state != stIdle {
		return nil, fmt.Errorf("coord: snapshot with a step in flight (state %d)", m.state)
	}
	if m.cfg.Ordered {
		return nil, errors.New("coord: the ordered mode has no snapshot form yet")
	}
	s := wire.MachineState{
		N:              m.cfg.N,
		K:              m.cfg.K,
		EpsNum:         m.cfg.Tol.Num(),
		Step:           m.step,
		Init:           m.init,
		Steps:          m.stats.Steps,
		ViolationSteps: m.stats.ViolationSteps,
		HandlerCalls:   m.stats.HandlerCalls,
		Resets:         m.stats.Resets,
		TopChanges:     m.stats.TopChanges,
		TPlus:          int64(m.tPlus),
		TMinus:         int64(m.tMinus),
		CurLo:          int64(m.curLo),
		CurHi:          int64(m.curHi),
		Top:            m.top,
	}
	for pi, p := range comm.Phases() {
		c, b := m.led.PhaseCounts(p), m.led.PhaseBytes(p)
		base := pi * len(comm.Kinds())
		s.Counts[base+0], s.Bytes[base+0] = c.Up, b.Up
		s.Counts[base+1], s.Bytes[base+1] = c.Down, b.Down
		s.Counts[base+2], s.Bytes[base+2] = c.Bcast, b.Bcast
	}
	return s.Append(dst), nil
}

// RestoreMachine rebuilds an idle Machine from a Snapshot frame. Beyond
// canonical framing (checked by the decoder) it validates every semantic
// invariant an idle machine holds, so arbitrary bytes either restore a
// machine indistinguishable from the original or fail with an error —
// never a machine that panics later.
func RestoreMachine(p []byte) (*Machine, error) {
	var s wire.MachineState
	if err := s.Decode(p); err != nil {
		return nil, err
	}
	if s.N <= 0 || s.K < 1 || s.K > s.N {
		return nil, fmt.Errorf("coord: restored machine shape n=%d k=%d invalid", s.N, s.K)
	}
	tol, err := order.TolFromNum(s.EpsNum)
	if err != nil {
		return nil, err
	}
	if s.Step < 0 || s.Steps < 0 || s.ViolationSteps < 0 || s.HandlerCalls < 0 ||
		s.Resets < 0 || s.TopChanges < 0 {
		return nil, fmt.Errorf("coord: restored machine has negative counters")
	}
	if s.Init != (s.Step > 0) {
		return nil, fmt.Errorf("coord: restored machine init=%v inconsistent with step %d", s.Init, s.Step)
	}
	want := 0
	if s.Init {
		want = s.K
	}
	if len(s.Top) != want {
		return nil, fmt.Errorf("coord: restored membership has %d ids, want %d", len(s.Top), want)
	}
	for _, id := range s.Top {
		if id >= s.N { // ids decode strictly increasing and non-negative
			return nil, fmt.Errorf("coord: restored membership id %d out of range", id)
		}
	}
	for i := range s.Counts {
		if s.Counts[i] < 0 || s.Bytes[i] < 0 {
			return nil, fmt.Errorf("coord: restored ledger cell %d is negative", i)
		}
	}
	m := New(Config{N: s.N, K: s.K, Tol: tol})
	m.step = s.Step
	m.init = s.Init
	m.stats = Stats{
		Steps:          s.Steps,
		ViolationSteps: s.ViolationSteps,
		HandlerCalls:   s.HandlerCalls,
		Resets:         s.Resets,
		TopChanges:     s.TopChanges,
	}
	m.tPlus = order.Key(s.TPlus)
	m.tMinus = order.Key(s.TMinus)
	m.curLo = order.Key(s.CurLo)
	m.curHi = order.Key(s.CurHi)
	for _, id := range s.Top {
		m.inTop[id>>6] |= 1 << (id & 63)
	}
	m.top = append(m.top, s.Top...)
	// Replay the ledger through the phase recorders so the restored
	// breakdown and total agree by construction, as in a live machine.
	for pi, ph := range comm.Phases() {
		rec := m.Recorder(ph)
		base := pi * len(comm.Kinds())
		for ki, kind := range comm.Kinds() {
			rec.RecordSized(kind, s.Counts[base+ki], s.Bytes[base+ki])
		}
	}
	return m, nil
}

// AppendCheckpoint appends one sealed frame of a checkpoint chain, of
// generation gen, to dst for the engines that checkpoint machine and bank
// together. With base == 0 it is a base frame (wire.Checkpoint): the
// fingerprint fields, the machine's frame and the bank's, each encoded in
// place. Otherwise it is a delta on the base frame of generation base
// (wire.CheckpointDelta): the machine's frame and the value of every node
// of dirty — a bitset over the bank's nodes, nil for all of them — which
// describes the bank exactly when no message was charged since dirty was
// last empty (a step that charges none runs no execution and installs
// nothing: it moves observed values and the step counters, and nothing
// else a frame holds).
func (m *Machine) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64, engine uint8, seed uint64, bank *Nodes) ([]byte, error) {
	var err error
	if base != 0 {
		w := wire.BeginCheckpointDelta(dst, gen, base, engine, seed, bank.distinct)
		if w.Buf, err = m.Snapshot(w.Buf); err != nil {
			return nil, err
		}
		w.EndSection()
		return w.Values(len(bank.keys), dirty, bank.value), nil
	}
	w := wire.BeginCheckpoint(dst, gen, engine, seed, bank.distinct)
	if w.Buf, err = m.Snapshot(w.Buf); err != nil {
		return nil, err
	}
	w.EndSection()
	w.Buf = bank.Snapshot(w.Buf)
	w.EndSection()
	return w.Seal(nil), nil
}

// FoldDeltas walks the delta frames that follow base envelope c in a
// checkpoint chain over n nodes, oldest first, and hands each one's values
// to apply; it returns the machine frame the chain ends on — c's own when
// there is no delta. Every delta is held to its chain before its values
// are applied: the next generation after its predecessor's, naming c's as
// its base, under c's engine, seed and tie-break fingerprint, its node ids
// inside [0, n) (the decoder has them strictly increasing), and its
// machine frame the predecessor's but for the steps taken — a span that
// charged no message cannot have moved the membership, the bounds, the
// counters or the ledger. Anything else is a forged or misassembled
// chain, and an error.
func FoldDeltas(c *wire.Checkpoint, n int, deltas [][]byte, apply func(ids []int, vals []int64) error) ([]byte, error) {
	mach := c.Machine
	if len(deltas) == 0 {
		return mach, nil
	}
	var prev, next wire.MachineState
	if err := prev.Decode(mach); err != nil {
		return nil, fmt.Errorf("coord: machine frame: %v", err)
	}
	var d wire.CheckpointDelta
	var scratch []byte
	for i, frame := range deltas {
		gen := c.Gen + uint64(i) + 1
		if err := d.Decode(frame); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: %v", gen, err)
		}
		if d.Gen != gen || d.Base != c.Gen {
			return nil, fmt.Errorf("coord: delta frame says generation %d on base %d, the chain has it as generation %d on base %d", d.Gen, d.Base, gen, c.Gen)
		}
		if d.Engine != c.Engine || d.Seed != c.Seed || d.Distinct != c.Distinct {
			return nil, fmt.Errorf("coord: delta frame of generation %d was taken under another engine, seed or tie-break mode than its base", gen)
		}
		if k := len(d.IDs); k > 0 && d.IDs[k-1] >= n {
			return nil, fmt.Errorf("coord: delta frame of generation %d names node %d of %d", gen, d.IDs[k-1], n)
		}
		if err := next.Decode(d.Machine); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: machine frame: %v", gen, err)
		}
		// prev after as many steps as next has taken since, none of them
		// charged: the encoding is canonical, so the frames are equal
		// exactly when the states are.
		steps := next.Step - prev.Step
		prev.Step, prev.Steps = prev.Step+steps, prev.Steps+steps
		if scratch = prev.Append(scratch[:0]); steps < 0 || !bytes.Equal(scratch, d.Machine) {
			return nil, fmt.Errorf("coord: delta frame of generation %d: its machine frame differs from its predecessor's in more than the steps taken", gen)
		}
		if err := apply(d.IDs, d.Vals); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: %w", gen, err)
		}
		mach = d.Machine
	}
	return mach, nil
}

// OpenMachine holds a checkpoint's machine frame to the configuration it is
// being restored under — shape and tolerance — before anything is built
// from it, and returns the restored machine. It is the first step of every
// engine's Restore: the link-backed engines' whole validation (their banks
// are rebuilt by the peers), and the first half of OpenCheckpoint.
func OpenMachine(n, k int, epsilon float64, machFrame []byte) (*Machine, error) {
	if n <= 0 || k < 1 || k > n {
		return nil, fmt.Errorf("coord: restore config needs 1 <= K <= N, got n=%d k=%d", n, k)
	}
	tol, err := order.NewTol(epsilon)
	if err != nil {
		return nil, err
	}
	var ms wire.MachineState
	if err := ms.Decode(machFrame); err != nil {
		return nil, fmt.Errorf("coord: machine frame: %v", err)
	}
	if ms.N != n || ms.K != k {
		return nil, fmt.Errorf("coord: checkpoint is for n=%d k=%d, config has n=%d k=%d", ms.N, ms.K, n, k)
	}
	if ms.EpsNum != tol.Num() {
		return nil, fmt.Errorf("coord: checkpoint tolerance %d/2^20 differs from configured %d/2^20", ms.EpsNum, tol.Num())
	}
	mach, err := RestoreMachine(machFrame)
	if err != nil {
		return nil, fmt.Errorf("coord: machine frame: %v", err)
	}
	return mach, nil
}

// OpenCheckpoint holds a checkpoint's two frames to the configuration it is
// being restored under — shape, tolerance and tie-break mode, of the
// machine frame (OpenMachine) and of the bank frame's header, which must
// cover [0, n) — before anything is built from them, and returns the
// restored machine. It is the first step of the sequential and concurrent
// engines' Restore; RestoreNodes and MatchesMachine are the other two.
func OpenCheckpoint(n, k int, epsilon float64, distinct bool, machFrame, nodesFrame []byte) (*Machine, error) {
	mach, err := OpenMachine(n, k, epsilon, machFrame)
	if err != nil {
		return nil, err
	}
	h, _, err := wire.DecodeBankHeader(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("coord: nodes frame: %w", err)
	}
	if h.N != n || h.Lo != 0 || h.Hi != n {
		return nil, fmt.Errorf("coord: checkpoint bank covers [%d, %d) of %d, want [0, %d)", h.Lo, h.Hi, h.N, n)
	}
	if h.EpsNum != mach.Tol().Num() {
		return nil, fmt.Errorf("coord: checkpoint bank tolerance %d/2^20 differs from configured %d/2^20", h.EpsNum, mach.Tol().Num())
	}
	if h.Distinct != distinct {
		return nil, fmt.Errorf("coord: checkpoint distinct-values mode %v differs from configured %v", h.Distinct, distinct)
	}
	return mach, nil
}

// Snapshot appends the bank's canonical checkpoint frame (the bank frame
// of internal/wire) to dst, straight from the bank's arrays: the installed
// bounds once, the keys, the members and the order filters of those that
// hold one. Banks carry no in-flight marker, so the contract is the
// caller's: snapshot only between steps, when no protocol execution is
// running. A frame carries live state only. The in-play set is empty after
// the probability-1 round of every execution and enlisted anew at round 0
// of the next; who violated is written by a step's filter checks and read
// by that step's executions alone.
func (b *Nodes) Snapshot(dst []byte) []byte {
	w := wire.BeginBank(dst, wire.BankHeader{
		N: b.codec.N(), Lo: b.lo, Hi: b.hi,
		EpsNum: b.tol.Num(), Distinct: b.distinct,
		BoundLo: int64(b.inst.Lo), BoundHi: int64(b.inst.Hi),
	})
	wire.BankKeys(&w, b.keys)
	for x := 0; x<<6 < len(b.keys); x++ {
		for word := b.topWord(x); word != 0; word &= word - 1 {
			if i := x<<6 | bits.TrailingZeros64(word); i < len(b.keys) {
				w.Member(i)
			}
		}
	}
	if b.ord != nil {
		for _, e := range b.ord.ent {
			if e.id >= b.lo && e.id < b.hi && b.inTop(e.id-b.lo) && e.iv != filter.Full() {
				w.Ord(e.id-b.lo, int64(e.iv.Lo), int64(e.iv.Hi))
			}
		}
	}
	return w.End()
}

// RestoreNodes rebuilds a node bank from a Snapshot frame taken under the
// given seed, reading the columns straight into the fresh bank's arrays.
// The seed is all the restored bank needs to flip, from the next step on,
// the coins the original would have — the property that keeps Las Vegas
// protocol runs bit-identical across the restore. Every filter is the
// frame's one pair of bounds applied by the node's membership bit, so the
// only filter state a frame can get wrong is a key that has left its
// filter: that is ErrFilterState. A frame in a dialect older monitors
// wrote is the wire error its decoder refuses it with.
func RestoreNodes(p []byte, seed uint64) (*Nodes, error) {
	h, r, err := wire.OpenBank(p)
	if err != nil {
		return nil, err
	}
	if h.N <= 0 || h.Lo >= h.Hi { // the header decoder checked 0 <= Lo <= Hi <= N
		return nil, fmt.Errorf("coord: restored node range [%d, %d) of %d is empty", h.Lo, h.Hi, h.N)
	}
	if h.Hi-h.Lo > math.MaxInt32 {
		return nil, fmt.Errorf("coord: restored node range [%d, %d) exceeds 2^31-1 hosted nodes", h.Lo, h.Hi)
	}
	tol, err := order.TolFromNum(h.EpsNum)
	if err != nil {
		return nil, err
	}
	b := newBank(h.N, h.Lo, h.Hi, seed, h.Distinct, tol)
	*b.inst = filter.Bounds{Lo: order.Key(h.BoundLo), Hi: order.Key(h.BoundHi)}
	if err := wire.BankReadKeys(&r, b.keys); err != nil {
		return nil, err
	}
	for {
		i, ok, err := r.Member()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		b.setTop(i)
	}
	for {
		i, lo, hi, ok, err := r.Ord()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		b.EnableOrderFilters(0)
		b.SetOrderBounds(b.lo+i, order.Key(lo), order.Key(hi))
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	for i, key := range b.keys {
		if iv := b.inst.Interval(b.inTop(i)); !iv.Contains(key) {
			return nil, fmt.Errorf("%w: node %d key %d outside its filter %s", ErrFilterState, b.lo+i, key, iv)
		}
	}
	return b, nil
}

// ErrFilterState is wrapped by every restore rejection of a bank frame
// whose filters are not a state Algorithm 1 can install: a key outside the
// filter its membership bit derives from the frame's bounds and, on the
// engines that restore machine and bank together, filters that contradict
// the machine. Test with errors.Is.
var ErrFilterState = errors.New("coord: checkpoint filters are not an installed assignment")

// MatchesMachine validates a restored full-range bank against the machine
// restored beside it, for the engines that checkpoint both (sequential,
// concurrent): the bank must cover the machine's nodes, hold order filters
// only beside a machine in the ordered mode, its membership bits must be
// the machine's, and its bounds and keys must pass RestoreFilters.
func (b *Nodes) MatchesMachine(m *Machine) error {
	if n := m.cfg.N; b.codec.N() != n || b.lo != 0 || b.hi != n {
		return fmt.Errorf("coord: bank frame covers [%d, %d) of %d, machine has n=%d", b.lo, b.hi, b.codec.N(), n)
	}
	if b.ord != nil && !m.cfg.Ordered {
		return errors.New("coord: bank frame holds order filters, the machine is not in the ordered mode")
	}
	for w, word := range b.top { // a full-range bank's bits are the machine's
		if diff := word ^ m.inTop[w]; diff != 0 {
			i := w<<6 | bits.TrailingZeros64(diff)
			return fmt.Errorf("%w: node %d (member: %v) contradicts the machine", ErrFilterState, i, b.inTop(i))
		}
	}
	_, err := RestoreFilters(*b.inst, b.keys, m)
	return err
}

// Filters assembles the filter assignment a full-range bank and its
// machine hold between them — the bank's installed bounds applied to the
// machine's membership — as the filter.Set the Lemma 2.2 checks of restore,
// tests and soak runs read.
func (b *Nodes) Filters(m *Machine) *filter.Set { return m.filters(*b.inst) }

func (m *Machine) filters(in filter.Bounds) *filter.Set {
	fs := filter.NewSet(m.cfg.N, m.cfg.K)
	if len(m.top) == m.cfg.K {
		fs.SetMembership(m.top)
	}
	fs.AssignBand(in.Lo, in.Hi)
	return fs
}

// RestoreFilters returns the filter set an engine that checkpoints machine
// and bank together (sequential, concurrent) resumes with: the bank
// frame's one pair of bounds applied to the restored machine's membership
// — the caller has checked that the frame's membership bits are the
// machine's. In ε mode the bounds must be the band the machine tracks, and
// the assignment must be valid for the frame's keys — Lemma 2.2, which
// also refuses filters left unbounded after the time-0 reset, or its ε
// counterpart. A monitor restored from anything else would serve a set its
// filters no longer guard.
func RestoreFilters(in filter.Bounds, keys []order.Key, m *Machine) (*filter.Set, error) {
	tol, fs := m.cfg.Tol, m.filters(in)
	if fs.Bounds() != in {
		return nil, fmt.Errorf("%w: bounds [%d, %d] installed where k = n leaves none", ErrFilterState, in.Lo, in.Hi)
	}
	if !tol.Zero() && (in.Lo != m.curLo || in.Hi != m.curHi) {
		return nil, fmt.Errorf("%w: installed band [%d, %d], machine tracks [%d, %d]", ErrFilterState, in.Lo, in.Hi, m.curLo, m.curHi)
	}
	var err error
	if tol.Zero() {
		err = fs.Validate(keys)
	} else {
		err = fs.ValidateEps(keys, tol)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFilterState, err)
	}
	return fs, nil
}
