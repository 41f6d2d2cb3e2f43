package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/wire"
)

// Checkpoint/restore for the sans-I/O coordinator. A checkpoint is taken
// between steps (the machine idle, no protocol execution in flight) and
// captures exactly the state the next step reads: configuration, step
// counter, statistics, T+/T− bounds, membership and the message ledger
// for the Machine; per-node values for a Nodes bank. A bank's membership bits
// and installed bounds are the machine's membership and Installed bounds,
// and its coins are a function of the seed the envelope carries.
// Everything else — the reset scratch of the Machine; the bank's
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
	if s.Init && s.K < s.N && tol.Zero() && s.TMinus > s.TPlus {
		return nil, fmt.Errorf("coord: restored machine has T− %d above T+ %d, which an idle machine has reset out of", s.TMinus, s.TPlus)
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
// describes the bank exactly when dirty holds every node observed since
// the frame before: values move only by observation, and the membership and
// bounds a bank installs are the machine frame's.
func (m *Machine) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64, engine uint8, seed uint64, bank *Nodes) ([]byte, error) {
	var err error
	if base != 0 {
		w := wire.BeginCheckpointDelta(dst, gen, base, engine, seed)
		if w.Buf, err = m.Snapshot(w.Buf); err != nil {
			return nil, err
		}
		w.EndSection()
		return w.Values(bank.n, dirty, bank.value), nil
	}
	w := wire.BeginCheckpoint(dst, gen, engine, seed)
	if w.Buf, err = m.Snapshot(w.Buf); err != nil {
		return nil, err
	}
	w.EndSection()
	w.Buf = bank.Snapshot(w.Buf)
	w.EndSection()
	return w.Seal(0, nil), nil
}

// FoldDeltas walks the delta frames that follow base envelope c in a
// checkpoint chain over n nodes, oldest first, and hands each one's values
// to apply; it returns the machine frame the chain ends on — c's own when
// there is no delta. Every delta is held to its chain before its values
// are applied: the next generation after its predecessor's, naming c's as
// its base, under c's engine and seed, its node ids inside [0, n) (the
// decoder has them strictly increasing), and its machine frame one the
// predecessor's can have become (follows). Anything else is a forged or
// misassembled chain, and an error.
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
		if d.Engine != c.Engine || d.Seed != c.Seed {
			return nil, fmt.Errorf("coord: delta frame of generation %d was taken under another engine or seed than its base", gen)
		}
		if k := len(d.IDs); k > 0 && d.IDs[k-1] >= n {
			return nil, fmt.Errorf("coord: delta frame of generation %d names node %d of %d", gen, d.IDs[k-1], n)
		}
		if err := next.Decode(d.Machine); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: machine frame: %v", gen, err)
		}
		var err error
		if scratch, err = follows(&prev, &next, d.Machine, scratch); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: its machine frame %v", gen, err)
		}
		if err := apply(d.IDs, d.Vals); err != nil {
			return nil, fmt.Errorf("coord: delta frame of generation %d: %w", gen, err)
		}
		prev, next = next, prev
		mach = d.Machine
	}
	return mach, nil
}

// follows checks that machine state next, encoded as frame, is one prev
// can have become: the same shape, both step counters advanced alike, and
// no statistic or ledger cell gone backwards. A span whose steps charged
// no message ran no execution and installed nothing (every execution over
// a non-empty cohort charges its winner's bid), so where no ledger cell
// moved, next must be prev but for the steps taken. It clobbers prev and
// returns scratch, grown, for the next call.
func follows(prev, next *wire.MachineState, frame, scratch []byte) ([]byte, error) {
	steps := next.Step - prev.Step
	if next.N != prev.N || next.K != prev.K || next.EpsNum != prev.EpsNum {
		return scratch, errors.New("is of another shape than its predecessor's")
	}
	if steps < 0 || next.Steps-prev.Steps != steps {
		return scratch, fmt.Errorf("steps from %d to %d (counted %d to %d)", prev.Step, next.Step, prev.Steps, next.Steps)
	}
	if next.ViolationSteps < prev.ViolationSteps || next.HandlerCalls < prev.HandlerCalls ||
		next.Resets < prev.Resets || next.TopChanges < prev.TopChanges {
		return scratch, errors.New("has a statistic below its predecessor's")
	}
	for i := range next.Counts {
		if next.Counts[i] < prev.Counts[i] || next.Bytes[i] < prev.Bytes[i] {
			return scratch, fmt.Errorf("has ledger cell %d below its predecessor's", i)
		}
	}
	if next.Counts != prev.Counts || next.Bytes != prev.Bytes {
		return scratch, nil
	}
	// The encoding is canonical, so the frames are equal exactly when the
	// states are.
	prev.Step, prev.Steps = next.Step, next.Steps
	if scratch = prev.Append(scratch[:0]); !bytes.Equal(scratch, frame) {
		return scratch, errors.New("differs from its predecessor's in more than the steps taken, and no message was charged")
	}
	return scratch, nil
}

// OpenMachine holds a checkpoint's machine frame to the configuration it is
// being restored under — shape and tolerance — before anything is built
// from it, and returns the restored machine. The link-backed engines'
// banks are rebuilt by the peers, so it is their whole validation; it is
// the machine half of RestoreChain.
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

// RestoreChain rebuilds the machine and the full-range bank of an engine
// that checkpoints both (the in-process engine) from a checkpoint chain
// taken under the configuration n, k, epsilon and seed — base envelope c
// and the delta frames after it, oldest first — and is its whole check:
//
//  1. c's bank frame gives every node's value, hence its key
//     (RestoreNodes); it must cover [0, n), and c may carry no value
//     mirror;
//  2. the deltas' values patch the keys (FoldDeltas, Nodes.Patch);
//  3. the machine frame the chain ends on gives the membership and the
//     installed bounds (OpenMachine, Machine.Installed);
//  4. the keys must be valid under that assignment — Lemma 2.2, or its ε
//     counterpart — or the error wraps ErrFilterState.
//
// So a chain restores exactly what a base frame taken at its last delta
// would, and a monitor restored from either serves a set its filters
// guard.
func RestoreChain(n, k int, epsilon float64, seed uint64, c *wire.Checkpoint, deltas [][]byte) (*Machine, *Nodes, error) {
	if len(c.Last) != 0 {
		return nil, nil, fmt.Errorf("coord: an in-process checkpoint carrying a value mirror of %d nodes", len(c.Last))
	}
	b, err := RestoreNodes(c.Nodes, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: nodes frame: %w", err)
	}
	if b.codec.N() != n || b.lo != 0 || b.hi != n {
		return nil, nil, fmt.Errorf("coord: checkpoint bank covers [%d, %d) of %d, want [0, %d)", b.lo, b.hi, b.codec.N(), n)
	}
	machFrame, err := FoldDeltas(c, n, deltas, b.Patch)
	if err != nil {
		return nil, nil, err
	}
	m, err := OpenMachine(n, k, epsilon, machFrame)
	if err != nil {
		return nil, nil, err
	}
	if b.tol != m.cfg.Tol {
		return nil, nil, fmt.Errorf("coord: checkpoint bank tolerance %d/2^20 differs from configured %d/2^20", b.tol.Num(), m.cfg.Tol.Num())
	}
	b.install(m)
	if err := b.validate(len(m.top)); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrFilterState, err)
	}
	return m, b, nil
}

// Snapshot appends the bank's canonical checkpoint frame (the bank frame
// of internal/wire) to dst: its value column, at whatever width the bank
// keeps it. Banks carry no in-flight marker, so the contract is the
// caller's: snapshot only between steps, when no protocol execution is
// running. A frame carries the bank's own state only. Its membership bits
// and installed bounds are the coordinator's (RestoreChain); the in-play
// set is empty after the probability-1 round of every execution and
// enlisted anew at round 0 of the next; who violated is written by a step's
// filter checks and read by that step's executions alone.
func (b *Nodes) Snapshot(dst []byte) []byte {
	h := wire.BankHeader{N: b.codec.N(), Lo: b.lo, Hi: b.hi, EpsNum: b.tol.Num()}
	switch c := b.col; {
	case c.n64 != nil:
		return appendBank(dst, h, cells(b, c.n64))
	case c.n48 != nil:
		return appendBank(dst, h, cells(b, c.n48))
	case c.n32 != nil:
		return appendBank(dst, h, cells(b, c.n32))
	default:
		return appendBank(dst, h, cells(b, c.n24))
	}
}

// appendBank appends the bank frame of header h and column cells to dst.
func appendBank[V wire.Value](dst []byte, h wire.BankHeader, cells []V) []byte {
	size := 0
	for i := range cells {
		size += wire.SizeVarint(wire.Load(cells, i))
	}
	w := wire.BeginBank(dst, h, size)
	for i := range cells {
		w.Put(wire.Load(cells, i))
	}
	return w.End()
}

// RestoreNodes rebuilds a node bank from a Snapshot frame taken under the
// given seed, reading the value column straight into the fresh bank's
// column, which it allocates once, at the width the values need; every
// node is an outsider and every filter [-inf, +inf] until its
// coordinator's state is installed (RestoreChain). The seed is all the
// restored bank needs to flip, from the next step on, the coins the
// original would have — the property that keeps Las Vegas protocol runs
// bit-identical across the restore. A frame in a dialect older monitors
// wrote is the wire error its decoder refuses it with, and a value outside
// the value domain wraps wire.ErrMalformed.
func RestoreNodes(p []byte, seed uint64) (*Nodes, error) {
	h, col, err := wire.OpenBank(p)
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
	// One pass for the tier and the first value outside the domain, which
	// is refused once the frame's framing has been checked (ReadBankValues).
	tier, bad, badV, maxVal := Tier24, -1, int64(0), order.MaxValueFor(h.N)
	for i, q := 0, col; i < h.Hi-h.Lo; i++ {
		v, w, err := wire.Varint(q)
		if err != nil {
			break
		}
		if v > maxVal || v < -maxVal {
			bad, badV = i, v
			break
		}
		tier, q = max(tier, valueTier(v)), q[w:]
	}
	b := newBank(h.N, h.Lo, h.Hi, seed, tol, tier)
	switch tier {
	case Tier64:
		err = wire.ReadBankValues(col, b.col.n64)
	case Tier48:
		err = wire.ReadBankValues(col, b.col.n48)
	case Tier32:
		err = wire.ReadBankValues(col, b.col.n32)
	default:
		err = wire.ReadBankValues(col, b.col.n24)
	}
	if err != nil {
		return nil, err
	}
	if bad >= 0 {
		_, err := b.Encode(b.lo+bad, badV)
		return nil, fmt.Errorf("%w: %v", wire.ErrMalformed, err)
	}
	return b, nil
}

// install gives a restored full-range bank, whose nodes are all
// outsiders, the membership and the filter bounds of machine m.
func (b *Nodes) install(m *Machine) {
	for _, id := range m.top {
		b.setTop(id)
	}
	*b.inst = m.Installed()
}

// validate holds a full-range bank that has installed its coordinator's
// state (install: a membership of members nodes, and the bounds) to the
// filters it derives from its own bitset and bounds — what filter.Set's
// Validate, or with a tolerance ValidateEps, checks, with no Set built for
// it. Every key, derived where it is read, must lie in its node's filter
// (holds), and the members must be separated from the outsiders: exactly,
// by a members' lower bound no smaller than the outsiders' upper one, or
// with a tolerance by a band covering the smallest member key and the
// largest outsider key.
func (b *Nodes) validate(members int) error {
	inst := *b.inst
	minTop, maxOut := order.PosInf, order.NegInf
	for i := 0; i < b.n; i++ {
		key, in := b.codec.Encode(b.value(i), b.lo+i), b.inTop(i)
		if !holds(inst, in, key) {
			return fmt.Errorf("filter: node %d key %d outside filter %s", b.lo+i, key, inst.Interval(in))
		}
		if in {
			minTop = order.Min(minTop, key)
		} else {
			maxOut = order.Max(maxOut, key)
		}
	}
	switch {
	case b.tol.Zero():
		// With no members yet, or no outsiders (k == n), separation is vacuous.
		if members > 0 && members < b.n && inst.Lo < inst.Hi {
			return fmt.Errorf("filter: separation violated: min top lower bound %d < max outside upper bound %d", inst.Lo, inst.Hi)
		}
	case maxOut != order.NegInf && !b.tol.Separated(minTop, maxOut):
		return fmt.Errorf("filter: ε-separation violated: min top key %d vs max outside key %d at eps=%v", minTop, maxOut, b.tol.Eps())
	}
	return nil
}

// ErrFilterState is wrapped by every restore rejection of a checkpoint
// whose keys the filters it records do not guard: a key outside the filter
// its node's membership derives from the machine's installed bounds, or a
// membership those bounds do not separate. Test with errors.Is.
var ErrFilterState = errors.New("coord: checkpoint filters are not an installed assignment")
