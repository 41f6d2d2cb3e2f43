package wire

import "fmt"

// The streams read an observation frame where it lies — the link's receive
// buffer — instead of decoding it into a column first: a host adds the
// changes to the values its bank holds as it reads them
// (coord.Nodes.ObserveStream), and an interior relay forwards each child's
// run of them without decoding one (Share) — a change is a self-delimiting
// varint like any value, so a relay needs no baseline. Observe.Decode and
// ObserveDelta.Decode remain the reference: for any bytes, a stream read to
// its end and closed accepts exactly the frames they accept, yields the
// same step, ids and changes, and fails with the error they fail with
// (FuzzObserveStream). The checks a decoder makes before its first value —
// type, step, count against the bytes left — are the open's; the
// trailing-byte check is Close's, after the last value.

// ObserveStream is a cursor over the values of one dense Observe frame.
type ObserveStream struct {
	Step  int64
	frame []byte
	off   int // frame[off:] is unread
	left  int // values unread
}

// OpenObserve reads an Observe frame's header and returns the cursor over
// its values.
func OpenObserve(frame []byte) (ObserveStream, error) {
	p, err := header(frame, TypeObserve)
	if err != nil {
		return ObserveStream{}, err
	}
	var step, count uint64
	if step, p, err = uvarintField(p); err != nil {
		return ObserveStream{}, err
	}
	if count, p, err = uvarintField(p); err != nil {
		return ObserveStream{}, err
	}
	if count > uint64(len(p)) { // every value takes >= 1 byte
		return ObserveStream{}, fmt.Errorf("%w: %d values in %d bytes", ErrMalformed, count, len(p))
	}
	return ObserveStream{Step: int64(step), frame: frame, off: len(frame) - len(p), left: int(count)}, nil
}

// Len returns the number of values not yet read.
func (s *ObserveStream) Len() int { return s.left }

// Offset returns how many of the frame's bytes have been read.
func (s *ObserveStream) Offset() int { return s.off }

// Read decodes the next min(len(dst), Len()) changes into dst and returns
// how many: all of them, or with an error those before the malformed one.
func (s *ObserveStream) Read(dst []int64) (n int, err error) {
	dst = dst[:min(len(dst), s.left)]
	p := s.frame[s.off:]
	for n < len(dst) {
		u, w, uerr := Uvarint(p)
		if uerr != nil {
			err = uerr
			break
		}
		dst[n] = unzigzag(u)
		p = p[w:]
		n++
	}
	s.off, s.left = len(s.frame)-len(p), s.left-n
	return n, err
}

// Share passes over the next n values, checking each as Read does and
// decoding none, and returns them as the frame their host is owed. It
// panics when fewer than n are left: the caller has compared Len with the
// width it splits.
func (s *ObserveStream) Share(n int) (Share, error) {
	if n < 0 || n > s.left {
		panic(fmt.Sprintf("wire: share of %d values with %d left", n, s.left))
	}
	start := s.off
	for i := 0; i < n; i++ {
		_, w, err := Uvarint(s.frame[s.off:])
		if err != nil {
			return Share{}, err
		}
		s.off += w
		s.left--
	}
	return Share{typ: TypeObserve, step: s.Step, Count: n, body: s.frame[start:s.off]}, nil
}

// Close ends a stream whose values have all been read: bytes after the
// last one are ErrTrailingBytes.
func (s *ObserveStream) Close() error { return fin(s.frame[s.off:]) }

// DeltaStream is a cursor over the (id, value) pairs of one sparse
// ObserveDelta frame.
type DeltaStream struct {
	Step  int64
	frame []byte
	off   int // frame[off:] is unread
	left  int // pairs unread
	prev  int // the last id read, -1 before the first
}

// OpenObserveDelta reads an ObserveDelta frame's header and returns the
// cursor over its pairs.
func OpenObserveDelta(frame []byte) (DeltaStream, error) {
	p, err := header(frame, TypeObserveDelta)
	if err != nil {
		return DeltaStream{}, err
	}
	var step, count uint64
	if step, p, err = uvarintField(p); err != nil {
		return DeltaStream{}, err
	}
	if count, p, err = uvarintField(p); err != nil {
		return DeltaStream{}, err
	}
	if count > uint64(len(p)+1)/2 { // every (gap, value) pair takes >= 2 bytes
		return DeltaStream{}, fmt.Errorf("%w: %d deltas in %d bytes", ErrMalformed, count, len(p))
	}
	return DeltaStream{Step: int64(step), frame: frame, off: len(frame) - len(p), left: int(count), prev: -1}, nil
}

// Len returns the number of pairs not yet read.
func (s *DeltaStream) Len() int { return s.left }

// id reads the next pair's gap at frame[off:] and returns the id it names
// and the offset of the pair's value, consuming nothing.
func (s *DeltaStream) id() (id, value int, err error) {
	gap, n, err := Uvarint(s.frame[s.off:])
	if err != nil {
		return 0, 0, err
	}
	id = s.prev + 1 + int(gap)
	if id <= s.prev { // gap overflowed int
		return 0, 0, fmt.Errorf("%w: delta id overflow", ErrMalformed)
	}
	return id, s.off + n, nil
}

// Next reads the next pair: an id and its node's change. It must not be
// called on a stream with none left.
func (s *DeltaStream) Next() (id int, v int64, err error) {
	id, value, err := s.id()
	if err != nil {
		return 0, 0, err
	}
	u, n, err := Uvarint(s.frame[value:])
	if err != nil {
		return 0, 0, err
	}
	s.off, s.prev = value+n, id
	s.left--
	return id, unzigzag(u), nil
}

// Share passes over the pairs whose ids are below hi — the ids are
// strictly increasing, so they come first — checking each as Next does and
// decoding no value, and returns them as the frame their host is owed;
// Count 0 means there are none and no frame is.
func (s *DeltaStream) Share(hi int) (Share, error) {
	sh := Share{typ: TypeObserveDelta, step: s.Step}
	start := s.off
	for s.left > 0 {
		id, value, err := s.id()
		if err != nil {
			return Share{}, err
		}
		if id >= hi {
			break
		}
		_, n, err := Uvarint(s.frame[value:])
		if err != nil {
			return Share{}, err
		}
		if sh.Count == 0 {
			sh.First, start = id, value
		}
		sh.Count++
		s.off, s.prev = value+n, id
		s.left--
	}
	sh.body = s.frame[start:s.off]
	return sh, nil
}

// Close ends a stream whose pairs have all been read: bytes after the last
// one are ErrTrailingBytes.
func (s *DeltaStream) Close() error { return fin(s.frame[s.off:]) }

// Share is a run of an observation frame's values, still encoded: what an
// interior relay forwards to the child that hosts them. Its frame is a
// fresh header and the parent frame's bytes — for a delta, behind the
// run's first id as a gap of its own, since a frame's first gap counts
// from -1 — so the child receives, byte for byte, the frame a root would
// have encoded for its range from the values.
type Share struct {
	Count int // values (pairs) in the run
	First int // delta: the first pair's id
	typ   byte
	step  int64
	body  []byte // aliases the parent frame; delta: from the first pair's value on
}

// Append encodes the run's frame after dst.
func (sh Share) Append(dst []byte) []byte {
	dst = append(dst, sh.typ)
	dst = AppendUvarint(dst, uint64(sh.step))
	dst = AppendUvarint(dst, uint64(sh.Count))
	if sh.typ == TypeObserveDelta && sh.Count > 0 {
		dst = AppendUvarint(dst, uint64(sh.First))
	}
	return append(dst, sh.body...)
}
