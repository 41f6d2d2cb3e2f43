package wire

import "fmt"

// Snapshot messages. A coordinator checkpoint is two frames — one
// MachineState for the decision machine, one bank frame per hosted node
// bank (bank.go) — encoded with
// the same canonical varint codec as every protocol message, so
// checkpoints are comparable byte for byte and covered by the same
// decode→re-encode fuzz harness as the live protocol. The semantic
// validation (range shapes, membership invariants, ledger consistency)
// lives in internal/coord's Restore functions; the decoders here enforce
// only what canonical framing requires.

// Number of (phase, kind) ledger cells in a MachineState: the three
// algorithm phases (violation, handler, reset) times the three message
// kinds (up, down, bcast), in that row-major order.
const MachineLedgerCells = 9

// MachineState is the wire form of an idle coord.Machine: configuration,
// step counters, execution statistics, the tightening bounds, the current
// membership, and the per-phase message ledger. Counts[i] and Bytes[i]
// hold the ledger cell of phase i/3 and kind i%3.
type MachineState struct {
	N, K   int
	EpsNum uint64
	Step   int64
	Init   bool

	Steps, ViolationSteps, HandlerCalls, Resets, TopChanges int64

	TPlus, TMinus, CurLo, CurHi int64

	Top []int // current membership, strictly increasing

	Counts [MachineLedgerCells]int64
	Bytes  [MachineLedgerCells]int64
}

// Append encodes m after dst. Top must be strictly increasing and
// non-negative; Append panics otherwise, matching the Machine's invariant.
func (m MachineState) Append(dst []byte) []byte {
	dst = append(dst, TypeMachineState)
	dst = AppendUvarint(dst, uint64(m.N))
	dst = AppendUvarint(dst, uint64(m.K))
	dst = AppendUvarint(dst, m.EpsNum)
	dst = AppendUvarint(dst, uint64(m.Step))
	var flags byte
	if m.Init {
		flags |= flagInit
	}
	dst = append(dst, flags)
	dst = AppendUvarint(dst, uint64(m.Steps))
	dst = AppendUvarint(dst, uint64(m.ViolationSteps))
	dst = AppendUvarint(dst, uint64(m.HandlerCalls))
	dst = AppendUvarint(dst, uint64(m.Resets))
	dst = AppendUvarint(dst, uint64(m.TopChanges))
	dst = AppendVarint(dst, m.TPlus)
	dst = AppendVarint(dst, m.TMinus)
	dst = AppendVarint(dst, m.CurLo)
	dst = AppendVarint(dst, m.CurHi)
	dst = AppendUvarint(dst, uint64(len(m.Top)))
	prev := -1
	for _, id := range m.Top {
		if id <= prev {
			panic("wire: MachineState membership must be strictly increasing")
		}
		dst = AppendUvarint(dst, uint64(id-prev-1))
		prev = id
	}
	for _, c := range m.Counts {
		dst = AppendUvarint(dst, uint64(c))
	}
	for _, b := range m.Bytes {
		dst = AppendUvarint(dst, uint64(b))
	}
	return dst
}

// Decode decodes a full MachineState frame into m, reusing Top's capacity.
func (m *MachineState) Decode(p []byte) error {
	p, err := header(p, TypeMachineState)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.N = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.K = int(u)
	if m.EpsNum, p, err = uvarintField(p); err != nil {
		return err
	}
	if m.EpsNum >= MaxTolNum {
		return fmt.Errorf("%w: machine tolerance numerator %d out of range", ErrMalformed, m.EpsNum)
	}
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Step = int64(u)
	if len(p) == 0 {
		return ErrTruncated
	}
	if p[0]&^flagInit != 0 {
		return fmt.Errorf("%w: unknown machine state flags 0x%02x", ErrMalformed, p[0])
	}
	m.Init = p[0]&flagInit != 0
	p = p[1:]
	for _, f := range []*int64{&m.Steps, &m.ViolationSteps, &m.HandlerCalls, &m.Resets, &m.TopChanges} {
		if u, p, err = uvarintField(p); err != nil {
			return err
		}
		*f = int64(u)
	}
	for _, f := range []*int64{&m.TPlus, &m.TMinus, &m.CurLo, &m.CurHi} {
		if *f, p, err = varintField(p); err != nil {
			return err
		}
	}
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)) { // every membership gap takes >= 1 byte
		return fmt.Errorf("%w: %d members in %d bytes", ErrMalformed, u, len(p))
	}
	m.Top = m.Top[:0]
	prev := -1
	for i := uint64(0); i < u; i++ {
		var gap uint64
		if gap, p, err = uvarintField(p); err != nil {
			return err
		}
		id := prev + 1 + int(gap)
		if id <= prev { // gap overflowed int
			return fmt.Errorf("%w: membership id overflow", ErrMalformed)
		}
		m.Top = append(m.Top, id)
		prev = id
	}
	for i := range m.Counts {
		if u, p, err = uvarintField(p); err != nil {
			return err
		}
		m.Counts[i] = int64(u)
	}
	for i := range m.Bytes {
		if u, p, err = uvarintField(p); err != nil {
			return err
		}
		m.Bytes[i] = int64(u)
	}
	return fin(p)
}

// MachineState flag bits.
const flagInit = 1 << 0 // MachineState: the time-0 reset already ran
