package wire

import (
	"fmt"
	"slices"
)

// Message type tags. Every encoded message is a one-byte tag followed by
// the message's varint-coded fields.
const (
	// TypeAssign is the coordinator's handshake: it assigns a joining peer
	// its contiguous node range and the monitor configuration.
	TypeAssign byte = 0x01
	// TypeReady acknowledges an Assign; the peer has built its node state.
	TypeReady byte = 0x02
	// TypeObserve delivers one dense observation step for a peer's range.
	TypeObserve byte = 0x03
	// TypeObserveDelta delivers one sparse observation step: only the
	// listed (strictly increasing) node ids changed.
	TypeObserveDelta byte = 0x04
	// TypeRound starts one sampler round of Algorithm 2 on a cohort.
	TypeRound byte = 0x05
	// TypeReply is a peer's batched answer to any command: violation
	// flags and the round's sampler bids.
	TypeReply byte = 0x06
	// TypeWinner notifies a FILTERRESET's winner of its new membership.
	TypeWinner byte = 0x07
	// TypeMidpoint broadcasts the filter bound all nodes re-anchor on.
	TypeMidpoint byte = 0x08
	// TypeResetBegin clears membership ahead of a FILTERRESET.
	TypeResetBegin byte = 0x09
	// TypeShutdown asks a peer to exit its serve loop.
	TypeShutdown byte = 0x0a
	// TypeBid is the canonical charged form of one sampler send (id, key).
	// On the wire bids ride batched inside TypeReply.
	TypeBid byte = 0x0b
	// TypeBest is the canonical charged form of the coordinator's
	// end-of-round broadcast (round, running best).
	TypeBest byte = 0x0c
	// TypeQuery is the bare "send your key" broadcast of the gather-all
	// baseline protocols.
	TypeQuery byte = 0x0d
	// TypePresence is an id-only node reply (domain-search baseline).
	TypePresence byte = 0x0e
	// TypeBounds assigns one node an explicit filter interval — the
	// charged form of the ordered variant's order-filter installation and
	// of the interval baselines' per-node assignments.
	TypeBounds byte = 0x0f
	// TypeShardDigest is a shard sub-coordinator's answer to one delegated
	// protocol execution (internal/shardrun): the local winner plus a
	// summary of the messages the local execution charged.
	TypeShardDigest byte = 0x10
	// TypeApproxBounds broadcasts the (1±ε) filter band of the
	// ε-approximate mode: top-k nodes install [Lo, +inf], outsiders
	// [-inf, Hi]. It replaces TypeMidpoint on monitors with a non-zero
	// tolerance.
	TypeApproxBounds byte = 0x11
	// TypeBatch is the multi-frame envelope of the pipelined engines: a
	// sequence of complete protocol messages delivered and processed in
	// order, coalescing several commands (or their replies) into one
	// transport frame per link. Batches do not nest.
	TypeBatch byte = 0x12
	// TypeMachineState is a coordinator checkpoint: the idle-state fields
	// of a coord.Machine, canonically encoded so a restored coordinator
	// resumes bit-identically (see snapshot.go).
	TypeMachineState byte = 0x13
	// 0x14 was the v1 bank frame's tag (nine fields a node, written by no
	// monitor since the bank frame of TypeBankState): reserved, never
	// reused, so that a v1 frame stays ErrUnknownType.
	// TypeStatsPoll asks a peer for its subtree's TreeStats. It is the
	// hierarchical engine's diagnostic plane: interior coordinators
	// forward it to their children and aggregate, so the root learns the
	// per-level coordination traffic of the whole tree with one poll per
	// link.
	TypeStatsPoll byte = 0x15
	// TypeTreeStats answers a StatsPoll: one coordination-traffic entry
	// per coordinator level below the sender, deepest level first.
	TypeTreeStats byte = 0x16
	// TypeCheckpoint is the durable checkpoint envelope: a generation
	// number, the engine fingerprint, the embedded machine and bank
	// snapshot frames and the coordinator's last-value mirror, sealed with a CRC-32
	// so torn or bit-rotted frames are rejected instead of restored (see
	// checkpoint.go and internal/ckpt).
	TypeCheckpoint byte = 0x17
	// TypeBankState is the node-side checkpoint companion: what one
	// coord.Nodes bank stores between steps and nothing it can derive
	// (see bank.go).
	TypeBankState byte = 0x18
	// TypeCheckpointDelta is the checkpoint envelope's delta variant: the
	// generation of the base frame it extends, the machine frame, and the
	// values of the nodes observed since the frame before it — everything
	// a zero-message span can move — under the same CRC-32 seal (see
	// checkpoint.go).
	TypeCheckpointDelta byte = 0x19
	// TypeCheckpointChain is the container a chain-aware checkpoint store
	// hands topk.Restore: one sealed base envelope followed by the sealed
	// deltas that name it, each length-prefixed (see checkpoint.go).
	TypeCheckpointChain byte = 0x1a
)

// MaxTolNum is the exclusive upper bound on Assign.EpsNum: tolerance
// numerators are fixed-point with denominator 2^order.TolShift, so a
// valid ε < 1 has a numerator below 1<<order.TolShift. wire stays
// dependency-free, so the value is duplicated here; a wire test pins it
// to 1<<order.TolShift.
const MaxTolNum uint64 = 1 << 20

// Flag bits used by messages with a flags byte.
const (
	flagDistinct = 1 << 0 // Assign: DistinctValues mode
	flagNoGens   = 1 << 1 // bank frame: no generator column follows the keys
	flagIsTop    = 1 << 0 // Winner: winner joins the top-k set
	flagFull     = 1 << 0 // Midpoint: install [-inf, +inf] (k == n)
	flagTopViol  = 1 << 0 // Reply: some top-k node violated its filter
	flagOutViol  = 1 << 1 // Reply: some outsider violated its filter
	flagOK       = 1 << 0 // ShardDigest: the local cohort was non-empty
)

// MsgType returns the type tag of an encoded message.
func MsgType(p []byte) (byte, error) {
	if len(p) == 0 {
		return 0, ErrTruncated
	}
	return p[0], nil
}

// header consumes the expected type tag.
func header(p []byte, want byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, ErrTruncated
	}
	if p[0] != want {
		return nil, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrUnknownType, p[0], want)
	}
	return p[1:], nil
}

// fin rejects trailing bytes after a fully decoded message.
func fin(p []byte) error {
	if len(p) != 0 {
		return fmt.Errorf("%w: %d left", ErrTrailingBytes, len(p))
	}
	return nil
}

// uvarintField decodes one uvarint field and advances p.
func uvarintField(p []byte) (uint64, []byte, error) {
	v, n, err := Uvarint(p)
	if err != nil {
		return 0, nil, err
	}
	return v, p[n:], nil
}

// varintField decodes one zigzag varint field and advances p.
func varintField(p []byte) (int64, []byte, error) {
	v, n, err := Varint(p)
	if err != nil {
		return 0, nil, err
	}
	return v, p[n:], nil
}

// Assign is the coordinator→peer handshake message: the peer hosts nodes
// [Lo, Hi) of a monitor over N nodes with top-set size K, seeded protocol
// randomness, the configured tie-break mode, and the tolerance of the
// ε-approximate mode as the exact fixed-point numerator EpsNum =
// floor(ε·2^order.TolShift) (0 for exact monitoring). A set flag bit the
// decoder does not know is malformed, not ignored: the handshake is where
// a peer of another build is turned away.
type Assign struct {
	Lo, Hi, N, K int
	Seed         uint64
	EpsNum       uint64
	Distinct     bool
}

// Append encodes m after dst.
func (m Assign) Append(dst []byte) []byte {
	dst = append(dst, TypeAssign)
	dst = AppendUvarint(dst, uint64(m.Lo))
	dst = AppendUvarint(dst, uint64(m.Hi))
	dst = AppendUvarint(dst, uint64(m.N))
	dst = AppendUvarint(dst, uint64(m.K))
	dst = AppendUvarint(dst, m.Seed)
	dst = AppendUvarint(dst, m.EpsNum)
	var flags byte
	if m.Distinct {
		flags |= flagDistinct
	}
	return append(dst, flags)
}

// DecodeAssign decodes a full Assign frame.
func DecodeAssign(p []byte) (Assign, error) {
	var m Assign
	p, err := header(p, TypeAssign)
	if err != nil {
		return m, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Lo = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Hi = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.N = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.K = int(u)
	if m.Seed, p, err = uvarintField(p); err != nil {
		return m, err
	}
	if m.EpsNum, p, err = uvarintField(p); err != nil {
		return m, err
	}
	if m.EpsNum >= MaxTolNum {
		return m, fmt.Errorf("%w: assign tolerance numerator %d out of range", ErrMalformed, m.EpsNum)
	}
	if len(p) == 0 {
		return m, ErrTruncated
	}
	if p[0]&^flagDistinct != 0 {
		return m, fmt.Errorf("%w: unknown assign flags 0x%02x", ErrMalformed, p[0])
	}
	m.Distinct = p[0]&flagDistinct != 0
	return m, fin(p[1:])
}

// Observe delivers one dense observation step: Vals[i] is the new value of
// node Lo+i of the receiving peer's assigned range.
type Observe struct {
	Step int64
	Vals []int64
}

// Append encodes m after dst.
func (m Observe) Append(dst []byte) []byte {
	dst = append(dst, TypeObserve)
	dst = AppendUvarint(dst, uint64(m.Step))
	dst = AppendUvarint(dst, uint64(len(m.Vals)))
	// A chunk of values at a time, into space that holds the longest they
	// can be: the stores need no capacity check of their own, where an
	// append per byte makes one each. A chunk that does not fit sizes the
	// values left exactly and grows dst once, with a chunk's worst case to
	// spare, so no later chunk misses: a fresh buffer is allocated once,
	// at about the frame's size, not doubled up to it, and a buffer that
	// already fits is never sized.
	const chunk = 256
	for vals := m.Vals; len(vals) > 0; {
		part := vals[:min(chunk, len(vals))]
		if cap(dst)-len(dst) < len(part)*maxUvarintLen {
			size := 0
			for _, v := range vals {
				size += SizeVarint(v)
			}
			dst = slices.Grow(dst, size+chunk*maxUvarintLen)
		}
		vals = vals[len(part):]
		buf, k := dst[len(dst):cap(dst)], 0
		for _, v := range part {
			u := zigzag(v)
			for u >= 0x80 {
				buf[k] = byte(u) | 0x80
				u >>= 7
				k++
			}
			buf[k] = byte(u)
			k++
		}
		dst = dst[:len(dst)+k]
	}
	return dst
}

// Decode decodes a full Observe frame into m, reusing m.Vals' capacity.
func (m *Observe) Decode(p []byte) error {
	p, err := header(p, TypeObserve)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Step = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)) { // every value takes >= 1 byte
		return fmt.Errorf("%w: %d values in %d bytes", ErrMalformed, u, len(p))
	}
	m.Vals = m.Vals[:0]
	for i := uint64(0); i < u; i++ {
		var v int64
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.Vals = append(m.Vals, v)
	}
	return fin(p)
}

// ObserveDelta delivers one sparse observation step: node IDs[j] (a global
// id, strictly increasing) changed to Vals[j]; all other nodes repeat. The
// id sequence is gap-coded on the wire.
type ObserveDelta struct {
	Step int64
	IDs  []int
	Vals []int64
}

// Append encodes m after dst. IDs must be strictly increasing and
// non-negative; Append panics otherwise, matching the engines' input
// contract.
func (m ObserveDelta) Append(dst []byte) []byte {
	if len(m.IDs) != len(m.Vals) {
		panic("wire: ObserveDelta ids/vals length mismatch")
	}
	dst = append(dst, TypeObserveDelta)
	dst = AppendUvarint(dst, uint64(m.Step))
	dst = AppendUvarint(dst, uint64(len(m.IDs)))
	prev := -1
	for j, id := range m.IDs {
		if id <= prev {
			panic("wire: ObserveDelta ids must be strictly increasing")
		}
		dst = AppendUvarint(dst, uint64(id-prev-1))
		dst = AppendVarint(dst, m.Vals[j])
		prev = id
	}
	return dst
}

// Decode decodes a full ObserveDelta frame into m, reusing slice capacity.
func (m *ObserveDelta) Decode(p []byte) error {
	p, err := header(p, TypeObserveDelta)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Step = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)+1)/2 { // every (gap, value) pair takes >= 2 bytes
		return fmt.Errorf("%w: %d deltas in %d bytes", ErrMalformed, u, len(p))
	}
	m.IDs, m.Vals = m.IDs[:0], m.Vals[:0]
	prev := -1
	for i := uint64(0); i < u; i++ {
		var gap uint64
		if gap, p, err = uvarintField(p); err != nil {
			return err
		}
		id := prev + 1 + int(gap)
		if id <= prev { // gap overflowed int
			return fmt.Errorf("%w: delta id overflow", ErrMalformed)
		}
		var v int64
		if v, p, err = varintField(p); err != nil {
			return err
		}
		m.IDs = append(m.IDs, id)
		m.Vals = append(m.Vals, v)
		prev = id
	}
	return fin(p)
}

// Round starts sampler round Round of one protocol execution over the
// cohort selected by Tag, with the cut broadcast so far (the best key, or
// the Want-th best of an execution for several), the execution's
// population bound, the observation step (cohort selection for violation
// protocols is per-step), and the number of winners the execution is to
// find — which a host that runs whole executions (internal/shardrun) needs
// and a host that runs single rounds only checks. The codec takes any
// Want; hosts reject one outside [1, Bound] where they reject a bad tag.
type Round struct {
	Tag   uint8
	Round int
	Best  int64
	Bound int
	Step  int64
	Want  int
}

// Append encodes m after dst.
func (m Round) Append(dst []byte) []byte {
	dst = append(dst, TypeRound, m.Tag)
	dst = AppendUvarint(dst, uint64(m.Round))
	dst = AppendVarint(dst, m.Best)
	dst = AppendUvarint(dst, uint64(m.Bound))
	dst = AppendUvarint(dst, uint64(m.Step))
	return AppendUvarint(dst, uint64(m.Want))
}

// DecodeRound decodes a full Round frame.
func DecodeRound(p []byte) (Round, error) {
	var m Round
	p, err := header(p, TypeRound)
	if err != nil {
		return m, err
	}
	if len(p) == 0 {
		return m, ErrTruncated
	}
	m.Tag = p[0]
	p = p[1:]
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Round = int(u)
	if m.Best, p, err = varintField(p); err != nil {
		return m, err
	}
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Bound = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Step = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Want = int(u)
	return m, fin(p)
}

// Reply is a peer's batched answer to one command: filter-violation flags
// (observation commands) and sampler bids (round commands). Commands that
// produce neither send an empty Reply to keep the link in lockstep.
type Reply struct {
	TopViol, OutViol bool
	IDs              []int   // bidding node ids
	Keys             []int64 // keys parallel to IDs
}

// Append encodes m after dst.
func (m Reply) Append(dst []byte) []byte {
	if len(m.IDs) != len(m.Keys) {
		panic("wire: Reply ids/keys length mismatch")
	}
	var flags byte
	if m.TopViol {
		flags |= flagTopViol
	}
	if m.OutViol {
		flags |= flagOutViol
	}
	dst = append(dst, TypeReply, flags)
	dst = AppendUvarint(dst, uint64(len(m.IDs)))
	for j, id := range m.IDs {
		dst = AppendUvarint(dst, uint64(id))
		dst = AppendVarint(dst, m.Keys[j])
	}
	return dst
}

// Decode decodes a full Reply frame into m, reusing slice capacity.
func (m *Reply) Decode(p []byte) error {
	p, err := header(p, TypeReply)
	if err != nil {
		return err
	}
	if len(p) == 0 {
		return ErrTruncated
	}
	if p[0]&^(flagTopViol|flagOutViol) != 0 {
		return fmt.Errorf("%w: unknown reply flags 0x%02x", ErrMalformed, p[0])
	}
	m.TopViol = p[0]&flagTopViol != 0
	m.OutViol = p[0]&flagOutViol != 0
	p = p[1:]
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > (uint64(len(p))+1)/2 { // every (id, key) pair takes >= 2 bytes
		return fmt.Errorf("%w: %d bids in %d bytes", ErrMalformed, u, len(p))
	}
	m.IDs, m.Keys = m.IDs[:0], m.Keys[:0]
	for i := uint64(0); i < u; i++ {
		var id uint64
		if id, p, err = uvarintField(p); err != nil {
			return err
		}
		var k int64
		if k, p, err = varintField(p); err != nil {
			return err
		}
		m.IDs = append(m.IDs, int(id))
		m.Keys = append(m.Keys, k)
	}
	return fin(p)
}

// Winner notifies the peer hosting node Target that the running
// FILTERRESET's execution made it a winner, and whether it thereby joins
// the top-k set (coordinators notify only those that do).
type Winner struct {
	Target int
	IsTop  bool
}

// Append encodes m after dst.
func (m Winner) Append(dst []byte) []byte {
	var flags byte
	if m.IsTop {
		flags |= flagIsTop
	}
	dst = append(dst, TypeWinner, flags)
	return AppendUvarint(dst, uint64(m.Target))
}

// DecodeWinner decodes a full Winner frame.
func DecodeWinner(p []byte) (Winner, error) {
	var m Winner
	p, err := header(p, TypeWinner)
	if err != nil {
		return m, err
	}
	if len(p) == 0 {
		return m, ErrTruncated
	}
	if p[0]&^flagIsTop != 0 {
		return m, fmt.Errorf("%w: unknown winner flags 0x%02x", ErrMalformed, p[0])
	}
	m.IsTop = p[0]&flagIsTop != 0
	p = p[1:]
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Target = int(u)
	return m, fin(p)
}

// Midpoint broadcasts the filter bound M: top-k nodes install [M, +inf],
// outsiders [-inf, M]. Full installs [-inf, +inf] everywhere (the k == n
// degenerate case); Mid is ignored then.
type Midpoint struct {
	Mid  int64
	Full bool
}

// Append encodes m after dst.
func (m Midpoint) Append(dst []byte) []byte {
	var flags byte
	if m.Full {
		flags |= flagFull
	}
	dst = append(dst, TypeMidpoint, flags)
	return AppendVarint(dst, m.Mid)
}

// DecodeMidpoint decodes a full Midpoint frame.
func DecodeMidpoint(p []byte) (Midpoint, error) {
	var m Midpoint
	p, err := header(p, TypeMidpoint)
	if err != nil {
		return m, err
	}
	if len(p) == 0 {
		return m, ErrTruncated
	}
	if p[0]&^flagFull != 0 {
		return m, fmt.Errorf("%w: unknown midpoint flags 0x%02x", ErrMalformed, p[0])
	}
	m.Full = p[0]&flagFull != 0
	p = p[1:]
	if m.Mid, p, err = varintField(p); err != nil {
		return m, err
	}
	return m, fin(p)
}

// ApproxBounds broadcasts the (1±ε) filter band of the ε-approximate
// mode: top-k nodes install [Lo, +inf], outsiders [-inf, Hi]. It is the
// tolerance-mode replacement for Midpoint — one broadcast still lets
// every node derive its new filter, it just carries both band ends
// explicitly because the coordinator may center the band off the exact
// midpoint.
type ApproxBounds struct {
	Lo, Hi int64
}

// Append encodes m after dst.
func (m ApproxBounds) Append(dst []byte) []byte {
	dst = append(dst, TypeApproxBounds)
	dst = AppendVarint(dst, m.Lo)
	return AppendVarint(dst, m.Hi)
}

// DecodeApproxBounds decodes a full ApproxBounds frame.
func DecodeApproxBounds(p []byte) (ApproxBounds, error) {
	var m ApproxBounds
	p, err := header(p, TypeApproxBounds)
	if err != nil {
		return m, err
	}
	if m.Lo, p, err = varintField(p); err != nil {
		return m, err
	}
	if m.Hi, p, err = varintField(p); err != nil {
		return m, err
	}
	if m.Lo > m.Hi {
		return m, fmt.Errorf("%w: approx bounds inverted: lo %d > hi %d", ErrMalformed, m.Lo, m.Hi)
	}
	return m, fin(p)
}

// Bid is the canonical charged form of one sampler send: the bidding
// node's id and its key. On the wire bids ride batched inside Reply; the
// standalone encoding exists so the comm ledgers charge exactly the bytes
// a per-message deployment would pay.
type Bid struct {
	ID  int
	Key int64
}

// Append encodes m after dst.
func (m Bid) Append(dst []byte) []byte {
	dst = append(dst, TypeBid)
	dst = AppendUvarint(dst, uint64(m.ID))
	return AppendVarint(dst, m.Key)
}

// DecodeBid decodes a full Bid frame.
func DecodeBid(p []byte) (Bid, error) {
	var m Bid
	p, err := header(p, TypeBid)
	if err != nil {
		return m, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.ID = int(u)
	if m.Key, p, err = varintField(p); err != nil {
		return m, err
	}
	return m, fin(p)
}

// Best is the canonical charged form of the coordinator's end-of-round
// broadcast: the round number and the best key seen so far (in the
// executing protocol's comparison domain). On the wire it rides inside the
// next Round command.
type Best struct {
	Round int
	Key   int64
}

// Append encodes m after dst.
func (m Best) Append(dst []byte) []byte {
	dst = append(dst, TypeBest)
	dst = AppendUvarint(dst, uint64(m.Round))
	return AppendVarint(dst, m.Key)
}

// DecodeBest decodes a full Best frame.
func DecodeBest(p []byte) (Best, error) {
	var m Best
	p, err := header(p, TypeBest)
	if err != nil {
		return m, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Round = int(u)
	if m.Key, p, err = varintField(p); err != nil {
		return m, err
	}
	return m, fin(p)
}

// Presence is an id-only node reply ("my key exceeds your threshold"),
// charged by the domain-search baseline.
type Presence struct {
	ID int
}

// Append encodes m after dst.
func (m Presence) Append(dst []byte) []byte {
	dst = append(dst, TypePresence)
	return AppendUvarint(dst, uint64(m.ID))
}

// DecodePresence decodes a full Presence frame.
func DecodePresence(p []byte) (Presence, error) {
	var m Presence
	p, err := header(p, TypePresence)
	if err != nil {
		return m, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.ID = int(u)
	return m, fin(p)
}

// Bounds assigns node Target the explicit filter interval [Lo, Hi]. The
// midpoint-broadcast scheme of Algorithm 1 never needs it; the ordered
// (§5) variant and the interval baselines charge their per-node
// coordinator→node assignments in this form.
type Bounds struct {
	Target int
	Lo, Hi int64
}

// Append encodes m after dst.
func (m Bounds) Append(dst []byte) []byte {
	dst = append(dst, TypeBounds)
	dst = AppendUvarint(dst, uint64(m.Target))
	dst = AppendVarint(dst, m.Lo)
	return AppendVarint(dst, m.Hi)
}

// DecodeBounds decodes a full Bounds frame.
func DecodeBounds(p []byte) (Bounds, error) {
	var m Bounds
	p, err := header(p, TypeBounds)
	if err != nil {
		return m, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return m, err
	}
	m.Target = int(u)
	if m.Lo, p, err = varintField(p); err != nil {
		return m, err
	}
	if m.Hi, p, err = varintField(p); err != nil {
		return m, err
	}
	return m, fin(p)
}

// ShardDigest is a shard sub-coordinator's batched answer to one
// delegated protocol execution (internal/shardrun): whether any hosted
// node participated (OK), the local winner's id and key when one did, the
// further winners of an execution that wanted several (Rest, continuing
// after ID and Key, best first), and the model messages the local
// execution charged — Ups sends totalling UpBytes encoded bytes plus
// Bcasts round broadcasts totalling BcastBytes — so the root can merge the
// shard's algorithm-ledger contribution without replaying the execution.
// When OK is false, ID and Key must be zero and Rest empty.
type ShardDigest struct {
	OK         bool
	ID         int
	Key        int64
	Ups        int64
	UpBytes    int64
	Bcasts     int64
	BcastBytes int64
	Rest       []Bid
}

// SetWinners makes winners, best first, the digest's winner list. Rest
// aliases them.
func (m *ShardDigest) SetWinners(winners []Bid) {
	m.OK, m.ID, m.Key, m.Rest = false, 0, 0, nil
	if len(winners) > 0 {
		m.OK, m.ID, m.Key, m.Rest = true, winners[0].ID, winners[0].Key, winners[1:]
	}
}

// Winners returns the length of the digest's winner list.
func (m *ShardDigest) Winners() int {
	if !m.OK {
		return 0
	}
	return 1 + len(m.Rest)
}

// Winner returns the i-th best winner of the list.
func (m *ShardDigest) Winner(i int) Bid {
	if i == 0 {
		return Bid{ID: m.ID, Key: m.Key}
	}
	return m.Rest[i-1]
}

// Append encodes m after dst.
func (m ShardDigest) Append(dst []byte) []byte {
	var flags byte
	if m.OK {
		flags |= flagOK
	}
	dst = append(dst, TypeShardDigest, flags)
	dst = AppendUvarint(dst, uint64(m.ID))
	dst = AppendVarint(dst, m.Key)
	dst = AppendUvarint(dst, uint64(m.Ups))
	dst = AppendUvarint(dst, uint64(m.UpBytes))
	dst = AppendUvarint(dst, uint64(m.Bcasts))
	dst = AppendUvarint(dst, uint64(m.BcastBytes))
	dst = AppendUvarint(dst, uint64(len(m.Rest)))
	for _, w := range m.Rest {
		dst = AppendUvarint(dst, uint64(w.ID))
		dst = AppendVarint(dst, w.Key)
	}
	return dst
}

// DecodeShardDigest decodes a full ShardDigest frame into a digest of its
// own.
func DecodeShardDigest(p []byte) (ShardDigest, error) {
	var m ShardDigest
	err := m.Decode(p)
	return m, err
}

// Decode decodes a full ShardDigest frame into m, reusing Rest's capacity.
func (m *ShardDigest) Decode(p []byte) error {
	rest := m.Rest[:0]
	*m = ShardDigest{}
	p, err := header(p, TypeShardDigest)
	if err != nil {
		return err
	}
	if len(p) == 0 {
		return ErrTruncated
	}
	if p[0]&^flagOK != 0 {
		return fmt.Errorf("%w: unknown shard digest flags 0x%02x", ErrMalformed, p[0])
	}
	m.OK = p[0]&flagOK != 0
	p = p[1:]
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.ID = int(u)
	if m.Key, p, err = varintField(p); err != nil {
		return err
	}
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Ups = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.UpBytes = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.Bcasts = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	m.BcastBytes = int64(u)
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p))/2 { // every (id, key) pair takes >= 2 bytes
		return fmt.Errorf("%w: %d further winners in %d bytes", ErrMalformed, u, len(p))
	}
	for i := uint64(0); i < u; i++ {
		var w Bid
		var id uint64
		if id, p, err = uvarintField(p); err != nil {
			return err
		}
		if w.Key, p, err = varintField(p); err != nil {
			return err
		}
		w.ID = int(id)
		rest = append(rest, w)
	}
	m.Rest = rest
	return fin(p)
}

// Batch is the multi-frame envelope: Frames holds complete encoded
// protocol messages that the receiver processes in order, exactly as if
// each had arrived in its own transport frame. The pipelined engines use
// it to ride queued ack-only commands (Winner, ResetBegin, Midpoint,
// ApproxBounds) along with the next command on the same link, and hosts
// answer an n-frame batch with an n-frame batch of the corresponding
// replies. Sub-frames must be non-empty and must not be batches
// themselves (no nesting).
type Batch struct {
	Frames [][]byte
}

// Append encodes m after dst. It panics on an empty or nested sub-frame,
// matching the engines' construction contract.
func (m Batch) Append(dst []byte) []byte {
	dst = AppendBatchHeader(dst, len(m.Frames))
	for _, f := range m.Frames {
		dst = AppendSubframe(dst, f)
	}
	return dst
}

// AppendBatchHeader starts the encoding of a Batch of n sub-frames after
// dst; n AppendSubframe calls complete it. Together they are Batch.Append
// for a caller whose sub-frames do not sit in a [][]byte.
func AppendBatchHeader(dst []byte, n int) []byte {
	return AppendUvarint(append(dst, TypeBatch), uint64(n))
}

// AppendSubframe encodes the next sub-frame of a started Batch after dst.
// It panics on an empty or nested sub-frame.
func AppendSubframe(dst, f []byte) []byte {
	if len(f) == 0 {
		panic("wire: empty batch sub-frame")
	}
	if f[0] == TypeBatch {
		panic("wire: nested batch")
	}
	return append(AppendUvarint(dst, uint64(len(f))), f...)
}

// Decode decodes a full Batch frame into m, reusing Frames' capacity. The
// sub-frame slices alias p and are valid only as long as p is.
func (m *Batch) Decode(p []byte) error {
	p, err := header(p, TypeBatch)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > (uint64(len(p))+1)/2 { // every sub-frame takes >= 2 bytes (len + type)
		return fmt.Errorf("%w: %d batch frames in %d bytes", ErrMalformed, u, len(p))
	}
	if m.Frames = m.Frames[:0]; uint64(cap(m.Frames)) < u {
		m.Frames = make([][]byte, 0, u) // the count is vetted against the frame: exactly what it holds
	}
	for i := uint64(0); i < u; i++ {
		var l uint64
		if l, p, err = uvarintField(p); err != nil {
			return err
		}
		if l == 0 {
			return fmt.Errorf("%w: empty batch sub-frame", ErrMalformed)
		}
		if l > uint64(len(p)) {
			return fmt.Errorf("%w: batch sub-frame of %d bytes in %d", ErrMalformed, l, len(p))
		}
		if p[0] == TypeBatch {
			return fmt.Errorf("%w: nested batch", ErrMalformed)
		}
		m.Frames = append(m.Frames, p[:l])
		p = p[l:]
	}
	return fin(p)
}

// LevelIO is one coordinator level's coordination traffic in a TreeStats
// reply: command frames sent down to that level's children and reply
// frames received back up, with their encoded byte volumes. Batched
// commands count sub-frame by sub-frame, so the numbers do not depend on
// how the transport framed them.
type LevelIO struct {
	Down, Up           int64
	DownBytes, UpBytes int64
}

// Add returns the component-wise sum a + o.
func (a LevelIO) Add(o LevelIO) LevelIO {
	return LevelIO{
		Down: a.Down + o.Down, Up: a.Up + o.Up,
		DownBytes: a.DownBytes + o.DownBytes, UpBytes: a.UpBytes + o.UpBytes,
	}
}

// TreeStats is a peer's answer to a StatsPoll, describing its whole
// subtree: one LevelIO per coordinator level strictly below the sender,
// deepest (leaf-facing) level first — a leaf shard reports no levels, an
// interior coordinator reports its children's levels followed by its own
// child-facing traffic. All counters are non-negative.
type TreeStats struct {
	Levels []LevelIO
}

// Merge folds one child's answer into m elementwise — the aggregation
// every coordinator level applies to its children's TreeStats.
func (m *TreeStats) Merge(o TreeStats) {
	for i, lv := range o.Levels {
		if i < len(m.Levels) {
			m.Levels[i] = m.Levels[i].Add(lv)
		} else {
			m.Levels = append(m.Levels, lv)
		}
	}
}

// Append encodes m after dst. It panics on a negative counter, matching
// the senders' construction contract (counters only ever increment).
func (m TreeStats) Append(dst []byte) []byte {
	dst = append(dst, TypeTreeStats)
	dst = AppendUvarint(dst, uint64(len(m.Levels)))
	for _, lv := range m.Levels {
		if lv.Down < 0 || lv.Up < 0 || lv.DownBytes < 0 || lv.UpBytes < 0 {
			panic("wire: negative tree stats counter")
		}
		dst = AppendUvarint(dst, uint64(lv.Down))
		dst = AppendUvarint(dst, uint64(lv.Up))
		dst = AppendUvarint(dst, uint64(lv.DownBytes))
		dst = AppendUvarint(dst, uint64(lv.UpBytes))
	}
	return dst
}

// DecodeTreeStats decodes a full TreeStats frame into m, reusing slice
// capacity.
func (m *TreeStats) Decode(p []byte) error {
	p, err := header(p, TypeTreeStats)
	if err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > (uint64(len(p))+3)/4 { // every level takes >= 4 bytes
		return fmt.Errorf("%w: %d level entries in %d bytes", ErrMalformed, u, len(p))
	}
	m.Levels = m.Levels[:0]
	for i := uint64(0); i < u; i++ {
		var lv LevelIO
		fields := [4]*int64{&lv.Down, &lv.Up, &lv.DownBytes, &lv.UpBytes}
		for _, f := range fields {
			var v uint64
			if v, p, err = uvarintField(p); err != nil {
				return err
			}
			if v > 1<<62 {
				return fmt.Errorf("%w: tree stats counter overflow", ErrMalformed)
			}
			*f = int64(v)
		}
		m.Levels = append(m.Levels, lv)
	}
	return fin(p)
}

// AppendBare encodes one of the field-less messages (TypeReady,
// TypeResetBegin, TypeShutdown, TypeQuery, TypeStatsPoll) after dst.
func AppendBare(dst []byte, typ byte) []byte { return append(dst, typ) }

// DecodeBare checks a field-less frame of the expected type.
func DecodeBare(p []byte, typ byte) error {
	p, err := header(p, typ)
	if err != nil {
		return err
	}
	return fin(p)
}
