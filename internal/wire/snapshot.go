package wire

import "fmt"

// Snapshot messages. A coordinator checkpoint is two frames — one
// MachineState for the decision machine, one bank frame per hosted node
// bank (bank.go; NodesState below is its v1 predecessor) — encoded with
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

// NodesState is the v1 wire form of one coord.Nodes bank between steps:
// the bank's shape plus, for each hosted node in id order, its key, filter,
// order filter, membership flags, last violation step and generator state
// and increment — nine fields a node where a bank stores four. Monitors
// write the v2 frame (BankState); v1 is decode-only, for the frames stores
// already hold, and coord re-encodes an accepted one as v2. All per-node
// slices are parallel, of length Hi-Lo.
type NodesState struct {
	N, Lo, Hi int
	EpsNum    uint64
	Distinct  bool

	Keys         []int64
	IvLo, IvHi   []int64
	OrdLo, OrdHi []int64
	Flags        []byte // FlagNodeInTop | FlagNodeWasTop | FlagNodeExtracted
	ViolStep     []int64
	RngState     []uint64
	RngInc       []uint64
}

// Per-node flag bits of a bank frame's flag bytes (both versions).
const (
	FlagNodeInTop     = 1 << 0
	FlagNodeWasTop    = 1 << 1
	FlagNodeExtracted = 1 << 2

	nodeFlagMask = FlagNodeInTop | FlagNodeWasTop | FlagNodeExtracted
)

// MachineState flag bits.
const flagInit = 1 << 0 // MachineState: the time-0 reset already ran

// Decode decodes a full NodesState frame into m, reusing slice capacity.
func (m *NodesState) Decode(p []byte) error {
	p, err := header(p, TypeNodesState)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Lo = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Hi = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.N = int(u)
	if m.EpsNum, p, err = uvarintField(p); err != nil {
		return err
	}
	if m.EpsNum >= MaxTolNum {
		return fmt.Errorf("%w: nodes tolerance numerator %d out of range", ErrMalformed, m.EpsNum)
	}
	if len(p) == 0 {
		return ErrTruncated
	}
	if p[0]&^flagDistinct != 0 {
		return fmt.Errorf("%w: unknown nodes state flags 0x%02x", ErrMalformed, p[0])
	}
	m.Distinct = p[0]&flagDistinct != 0
	p = p[1:]
	if m.Lo < 0 || m.Hi < m.Lo || m.Hi > m.N {
		return fmt.Errorf("%w: nodes state range [%d, %d) of %d", ErrMalformed, m.Lo, m.Hi, m.N)
	}
	n := uint64(m.Hi - m.Lo)
	if 9*n > uint64(len(p)) { // every node entry takes >= 9 bytes
		return fmt.Errorf("%w: %d node entries in %d bytes", ErrMalformed, n, len(p))
	}
	m.Keys, m.IvLo, m.IvHi = m.Keys[:0], m.IvLo[:0], m.IvHi[:0]
	m.OrdLo, m.OrdHi, m.Flags = m.OrdLo[:0], m.OrdHi[:0], m.Flags[:0]
	m.ViolStep, m.RngState, m.RngInc = m.ViolStep[:0], m.RngState[:0], m.RngInc[:0]
	for i := uint64(0); i < n; i++ {
		var v int64
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.Keys = append(m.Keys, v)
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.IvLo = append(m.IvLo, v)
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.IvHi = append(m.IvHi, v)
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.OrdLo = append(m.OrdLo, v)
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.OrdHi = append(m.OrdHi, v)
		if len(p) == 0 {
			return ErrTruncated
		}
		if p[0]&^byte(nodeFlagMask) != 0 {
			return fmt.Errorf("%w: unknown node flags 0x%02x", ErrMalformed, p[0])
		}
		m.Flags = append(m.Flags, p[0])
		p = p[1:]
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.ViolStep = append(m.ViolStep, v)
		if u, p, err = uvarintField(p); err != nil {
			return err
		}
		m.RngState = append(m.RngState, u)
		if u, p, err = uvarintField(p); err != nil {
			return err
		}
		m.RngInc = append(m.RngInc, u)
	}
	return fin(p)
}
