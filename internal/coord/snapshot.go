package coord

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Checkpoint/restore for the sans-I/O coordinator. A checkpoint is taken
// between steps (the machine idle, no protocol execution in flight) and
// captures exactly the state the next step reads: configuration, step
// counter, statistics, T+/T− bounds, membership and the message ledger
// for the Machine; per-node keys, filters, membership flags, violation
// history and generator state for a Nodes bank. Everything else — the
// extraction scratch of the Machine, the active list of the bank — is
// (re)initialized before its next use, so a restored coordinator resumes
// bit-identically to one that never stopped: same reports, same counts,
// same randomness consumption. The equivalence tests in snapshot_test.go
// pin that property.

// Snapshot appends the machine's canonical checkpoint frame
// (wire.MachineState) to dst. It fails if a step is in flight: mid-step
// state references substrate interactions that cannot be serialized.
func (m *Machine) Snapshot(dst []byte) ([]byte, error) {
	if m.state != stIdle {
		return nil, fmt.Errorf("coord: snapshot with a step in flight (state %d)", m.state)
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
		m.inTop[id] = true
	}
	m.top = append(m.top, s.Top...)
	// Replay the ledger through the phase recorders so the restored
	// breakdown and total agree by construction, as in a live machine.
	for pi, ph := range comm.Phases() {
		rec := m.Recorder(ph)
		base := pi * len(comm.Kinds())
		for ki, kind := range comm.Kinds() {
			comm.RecordSized(rec, kind, s.Counts[base+ki], s.Bytes[base+ki])
		}
	}
	return m, nil
}

// Snapshot appends the bank's canonical checkpoint frame (wire.NodesState)
// to dst. Banks carry no in-flight marker, so the contract is the caller's:
// snapshot only between steps, when no protocol execution is running —
// the active list is rebuilt at round 0 of every execution and is the one
// piece of bank state a between-steps checkpoint can omit.
func (b *Nodes) Snapshot(dst []byte) []byte {
	n := b.hi - b.lo
	s := wire.NodesState{
		N:        b.codec.N(),
		Lo:       b.lo,
		Hi:       b.hi,
		EpsNum:   b.tol.Num(),
		Distinct: b.distinct,
		Keys:     make([]int64, n),
		IvLo:     make([]int64, n),
		IvHi:     make([]int64, n),
		OrdLo:    make([]int64, n),
		OrdHi:    make([]int64, n),
		Flags:    make([]byte, n),
		ViolStep: make([]int64, n),
		RngState: make([]uint64, n),
		RngInc:   make([]uint64, n),
	}
	copy(s.Flags, b.flags)
	copy(s.ViolStep, b.violStep)
	for i, key := range b.keys {
		s.Keys[i] = int64(key)
		iv, ord := b.inst.Interval(b.flags[i]&flagInTop != 0), filter.Full()
		if b.ord != nil {
			ord = b.ord[i]
		}
		s.IvLo[i], s.IvHi[i] = int64(iv.Lo), int64(iv.Hi)
		s.OrdLo[i], s.OrdHi[i] = int64(ord.Lo), int64(ord.Hi)
		s.RngState[i], s.RngInc[i] = b.rngs[i].State()
	}
	return s.Append(dst)
}

// RestoreNodes rebuilds a node bank from a Snapshot frame. The generators
// resume mid-sequence via rng.FromState, so the restored bank consumes
// randomness exactly where the original left off — the property that keeps
// Las Vegas protocol runs bit-identical across the restore. Unlike
// NewNodes it does not walk the root generator's split sequence; the
// snapshot already carries each node's generator.
func RestoreNodes(p []byte) (*Nodes, error) {
	var s wire.NodesState
	if err := s.Decode(p); err != nil {
		return nil, err
	}
	if s.N <= 0 || s.Lo >= s.Hi { // decode checked 0 <= Lo <= Hi <= N
		return nil, fmt.Errorf("coord: restored node range [%d, %d) of %d is empty", s.Lo, s.Hi, s.N)
	}
	tol, err := order.TolFromNum(s.EpsNum)
	if err != nil {
		return nil, err
	}
	in, err := frameBounds(&s)
	if err != nil {
		return nil, err
	}
	b := newBank(s.N, s.Lo, s.Hi, s.Distinct, tol)
	*b.inst = in
	copy(b.flags, s.Flags)
	copy(b.violStep, s.ViolStep)
	for i := range b.keys {
		r, err := rng.FromState(s.RngState[i], s.RngInc[i])
		if err != nil {
			return nil, fmt.Errorf("coord: restored node %d: %w", s.Lo+i, err)
		}
		b.keys[i], b.rngs[i] = order.Key(s.Keys[i]), *r
		if ord := (filter.Interval{Lo: order.Key(s.OrdLo[i]), Hi: order.Key(s.OrdHi[i])}); ord != filter.Full() {
			b.EnableOrderFilters()
			b.ord[i] = ord
		}
	}
	return b, nil
}

// ErrFilterState is wrapped by every restore rejection of a bank frame
// whose filters are not a state Algorithm 1 can install: per-node
// intervals that are not one broadcast's bounds applied by membership, a
// key outside its filter, or — on the engines that restore machine and
// bank together — filters that contradict the machine. Test with
// errors.Is.
var ErrFilterState = errors.New("coord: checkpoint filters are not an installed assignment")

// frameBounds recovers the installed bounds a bank frame was taken under.
// A bank stores one broadcast, not n intervals, so only a canonical frame
// is representable: [lo, +inf] on every member and [-inf, hi] on every
// outsider for one (lo, hi) — both infinite before the first install, on
// a bank rebuilt for a reassigned range and when k == n — and, as after
// every completed step, every key inside its filter. A range hosting only
// members (or only outsiders) leaves the other bound unconstrained: it
// restores unbounded, and no hosted node reads it before the next install
// sets both.
func frameBounds(s *wire.NodesState) (filter.Bounds, error) {
	in, haveLo, haveHi := filter.Unbounded(), false, false
	for i := range s.IvLo {
		iv := filter.Interval{Lo: order.Key(s.IvLo[i]), Hi: order.Key(s.IvHi[i])}
		inTop := s.Flags[i]&flagInTop != 0
		if inTop && !haveLo {
			in.Lo, haveLo = iv.Lo, true
		} else if !inTop && !haveHi {
			in.Hi, haveHi = iv.Hi, true
		}
		if iv != in.Interval(inTop) {
			return in, fmt.Errorf("%w: node %d (member: %v) holds %s", ErrFilterState, s.Lo+i, inTop, iv)
		}
		if !iv.Contains(order.Key(s.Keys[i])) {
			return in, fmt.Errorf("%w: node %d key %d outside its filter %s", ErrFilterState, s.Lo+i, s.Keys[i], iv)
		}
	}
	return in, nil
}

// RestoreFilters validates the full-range bank frame of an engine that
// checkpoints machine and bank together (sequential, concurrent) against
// the restored machine, and returns the filter set the frame describes:
// the frame must be canonical (frameBounds), its membership flags the
// machine's, in ε mode its bounds the band the machine tracks, and the
// assignment valid for the frame's keys — Lemma 2.2, which also refuses
// filters left unbounded after the time-0 reset, or its ε counterpart. A
// monitor restored from anything else would serve a set its filters no
// longer guard.
func RestoreFilters(s *wire.NodesState, m *Machine) (*filter.Set, error) {
	n, k, tol := m.cfg.N, m.cfg.K, m.cfg.Tol
	if s.N != n || s.Lo != 0 || s.Hi != n {
		return nil, fmt.Errorf("coord: bank frame covers [%d, %d) of %d, machine has n=%d", s.Lo, s.Hi, s.N, n)
	}
	in, err := frameBounds(s)
	if err != nil {
		return nil, err
	}
	fs := filter.NewSet(n, k)
	if len(m.top) == k {
		fs.SetMembership(m.top)
	}
	fs.AssignBand(in.Lo, in.Hi)
	if !tol.Zero() && (in.Lo != m.curLo || in.Hi != m.curHi) {
		return nil, fmt.Errorf("%w: installed band [%d, %d], machine tracks [%d, %d]", ErrFilterState, in.Lo, in.Hi, m.curLo, m.curHi)
	}
	keys := make([]order.Key, n)
	for i := range keys {
		keys[i] = order.Key(s.Keys[i])
		iv := filter.Interval{Lo: order.Key(s.IvLo[i]), Hi: order.Key(s.IvHi[i])}
		if inTop := s.Flags[i]&flagInTop != 0; inTop != m.inTop[i] || iv != fs.Interval(i) {
			return nil, fmt.Errorf("%w: node %d (member: %v, filter %s) contradicts the machine", ErrFilterState, i, inTop, iv)
		}
	}
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
