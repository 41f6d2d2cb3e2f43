package wire

import (
	"fmt"
	"math"
)

// A bid log is a node host's answer to a Round request (TypeBidLog): the
// host has run the whole execution over its range against its own running
// cut, and the log lists every bid it made, grouped by round. After the
// type byte come the non-empty rounds in ascending order, each a group:
//
//	round   uvarint  below the execution's protocol.Rounds(bound)
//	count   uvarint  bids in the group, at least one
//	count × (id delta uvarint, key varint)
//
// Within a group ids strictly ascend. The first id is coded as its offset
// from the host's first node, every later one as its distance from the id
// before it, which is never zero. The log is written straight into the
// reply frame (BidLogWriter) and read where it lies (BidLog): no column
// of bids stands between the host's rounds and the coordinator's replay.

// BidLogWriter appends a bid log to a frame as the host's rounds produce
// it. A group's header goes in front of its bids when the group closes, so
// a bid is written once, where it stays. The zero value is ready for
// Begin and may be reused.
type BidLogWriter struct {
	buf   []byte
	lo    int // the host's first node
	at    int // where the open group's bids start
	round int // the open group's round
	n     int // bids in the open group; 0: no group open
	prev  int // the open group's last id
}

// Begin starts a bid log after dst for a host whose first node is lo.
func (w *BidLogWriter) Begin(dst []byte, lo int) {
	w.buf, w.lo, w.n = append(dst, TypeBidLog), lo, 0
}

// Add logs one bid of round r. Rounds must not descend, and within a
// round ids must ascend from lo; Add panics otherwise, as it does for an
// id below lo.
func (w *BidLogWriter) Add(r, id int, key int64) {
	switch {
	case w.n > 0 && r == w.round:
		if id <= w.prev {
			panic(fmt.Sprintf("wire: bid log id %d after %d in round %d", id, w.prev, r))
		}
		w.buf = AppendUvarint(w.buf, uint64(id-w.prev))
	case w.n > 0 && r < w.round:
		panic(fmt.Sprintf("wire: bid log round %d after round %d", r, w.round))
	default:
		if id < w.lo {
			panic(fmt.Sprintf("wire: bid log id %d below the host's first node %d", id, w.lo))
		}
		w.close()
		w.at, w.round = len(w.buf), r
		w.buf = AppendUvarint(w.buf, uint64(id-w.lo))
	}
	w.buf = AppendVarint(w.buf, key)
	w.n++
	w.prev = id
}

// close puts the open group's header in front of its bids.
func (w *BidLogWriter) close() {
	if w.n == 0 {
		return
	}
	var head [2 * maxUvarintLen]byte
	h := AppendUvarint(AppendUvarint(head[:0], uint64(w.round)), uint64(w.n))
	end := len(w.buf)
	w.buf = append(w.buf, h...)
	copy(w.buf[w.at+len(h):], w.buf[w.at:end])
	copy(w.buf[w.at:], h)
	w.n = 0
}

// End closes the log and returns the frame.
func (w *BidLogWriter) End() []byte {
	w.close()
	buf := w.buf
	w.buf = nil
	return buf
}

// BidLog is a cursor over one bid log where it lies: Open checks the whole
// log against the sender's range and the execution's round count, and Next
// then hands out its bids round by round. It holds the frame, so it is
// valid as long as the frame is.
type BidLog struct {
	p     []byte // the bids and groups not yet read
	lo    int
	round int // the current group's round; math.MaxInt once the log is read
	left  int // the current group's bids not yet read
	id    int // the last id read; lo - 1 at a group's start
}

// Open checks a bid log frame from the host of nodes [lo, hi) in an
// execution of the given number of rounds, and positions the cursor at its
// first bid. It rejects, as ErrMalformed, a group whose round is not below
// rounds or not above the group's before it, an empty group or one whose
// count the frame cannot hold, an id outside [lo, hi) and an id not above
// the one before it in its group. A frame Open accepts never fails Next.
func (l *BidLog) Open(frame []byte, lo, hi, rounds int) error {
	p, err := header(frame, TypeBidLog)
	if err != nil {
		return err
	}
	*l = BidLog{p: p, lo: lo}
	c := *l
	last := -1
	for {
		if err := c.group(); err != nil {
			return err
		}
		if c.round == math.MaxInt {
			break
		}
		if c.round >= rounds || c.round <= last {
			return fmt.Errorf("%w: bid log round %d after round %d of %d", ErrMalformed, c.round, last, rounds)
		}
		last = c.round
		for c.left > 0 {
			id, _, err := c.bid()
			if err != nil {
				return err
			}
			if id >= hi {
				return fmt.Errorf("%w: bid log id %d outside range [%d, %d)", ErrMalformed, id, lo, hi)
			}
		}
	}
	return l.group()
}

// group reads the next group's header, or marks the log read.
func (l *BidLog) group() error {
	if len(l.p) == 0 {
		l.round, l.left = math.MaxInt, 0
		return nil
	}
	r, p, err := uvarintField(l.p)
	if err != nil {
		return err
	}
	n, p, err := uvarintField(p)
	if err != nil {
		return err
	}
	if n == 0 || n > (uint64(len(p))+1)/2 { // every bid takes >= 2 bytes
		return fmt.Errorf("%w: bid log group of %d bids in %d bytes", ErrMalformed, n, len(p))
	}
	l.p, l.round, l.left, l.id = p, int(min(r, math.MaxInt-1)), int(n), l.lo-1
	return nil
}

// bid reads the current group's next bid.
func (l *BidLog) bid() (id int, key int64, err error) {
	d, p, err := uvarintField(l.p)
	if err != nil {
		return 0, 0, err
	}
	base := l.id
	switch {
	case base < l.lo:
		base = l.lo // a group's first id counts from lo
	case d == 0:
		return 0, 0, fmt.Errorf("%w: bid log id %d repeated in round %d", ErrMalformed, l.id, l.round)
	}
	if d > math.MaxInt32 { // past any hosted range (coord.NewNodes)
		return 0, 0, fmt.Errorf("%w: bid log id %d + %d outside any range", ErrMalformed, base, d)
	}
	if key, p, err = varintField(p); err != nil {
		return 0, 0, err
	}
	l.p, l.id, l.left = p, base+int(d), l.left-1
	return l.id, key, nil
}

// Next returns the next bid of round r, or false when the log has no
// further bid of that round. Rounds are asked for in ascending order.
func (l *BidLog) Next(r int) (id int, key int64, ok bool) {
	if l.round != r || l.left == 0 {
		return 0, 0, false
	}
	id, key, err := l.bid()
	if err == nil && l.left == 0 {
		err = l.group()
	}
	return id, key, err == nil
}
