package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// errClass maps a decode error to the sentinel it wraps (nil for nil), so
// two decoders can be required to fail alike without comparing texts.
func errClass(err error) error {
	for _, c := range []error{ErrTruncated, ErrOverflow, ErrNonCanonical, ErrMalformed, ErrTrailingBytes, ErrUnknownType} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err // nil, or an error of no class: equal to nothing but itself
}

// FuzzObserveStream is the differential test of the in-place cursors
// against the decoders they stand in for. For any bytes, a stream that is
// read to its end and closed — by chunked reads as a host reads it, and by
// validating shares as a relay splits it — must accept exactly what
// Observe.Decode / ObserveDelta.Decode accept, fail with the same class of
// error, and on acceptance yield the same step, ids and values. A share is
// compared through its frame, which must be byte for byte what the decoded
// values of its run encode to: since the codec admits one encoding per
// value, that pins every offset a share stopped at to the decoder's.
func FuzzObserveStream(f *testing.F) {
	dense := Observe{Step: 9, Vals: []int64{5, -5, 1 << 40, -1 << 62, 0, 77, math.MaxInt64, math.MinInt64}}.Append(nil)
	delta := ObserveDelta{Step: 9, IDs: []int{0, 1, 4, 300, 1 << 33}, Vals: []int64{-9, 9, 1 << 50, 0, -1}}.Append(nil)
	for _, seed := range [][]byte{
		dense, delta,
		dense[:len(dense)/2], delta[:len(delta)/2], // truncated mid-run
		dense[:3], delta[:3],
		append(slices.Clone(dense), 0), append(slices.Clone(delta), 7), // trailing bytes
		{TypeObserve, 1, 2, 0x80, 0x00, 1},                                                      // a redundant zero byte
		{TypeObserve, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},         // a 65-bit value
		{TypeObserveDelta, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 3}, // a gap past int
		{TypeObserveDelta, 1, 2, 0, 3, 0x80, 0x00, 3},
		{TypeObserve, 1, 200, 1, 2},      // more values than bytes
		{TypeObserveDelta, 1, 200, 1, 2}, //
		{TypeObserve, 3, 0}, {TypeObserveDelta, 3, 0},
		{TypeObserve, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{TypeRound, 1, 2}, {},
	} {
		f.Add(seed, uint16(3), uint16(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk, cut uint16) {
		fuzzDenseStream(t, data, int(chunk)%64+1, int(cut))
		fuzzDeltaStream(t, data, int(cut))
	})
}

func fuzzDenseStream(t *testing.T, data []byte, chunk, cut int) {
	var ref Observe
	refErr := ref.Decode(data)

	// As a host reads it: chunked reads to the end, then Close.
	var vals []int64
	s, err := OpenObserve(data)
	for buf := make([]int64, chunk); err == nil && s.Len() > 0; {
		var n int
		n, err = s.Read(buf)
		vals = append(vals, buf[:n]...)
	}
	if err == nil {
		err = s.Close()
	}
	if errClass(err) != errClass(refErr) {
		t.Fatalf("dense read: stream %v, decoder %v", err, refErr)
	}
	if err == nil && (s.Step != ref.Step || !slices.Equal(vals, ref.Vals) || s.Offset() != len(data)) {
		t.Fatalf("dense read: step %d values %v at offset %d, decoder step %d values %v of %d bytes", s.Step, vals, s.Offset(), ref.Step, ref.Vals, len(data))
	}

	// As a relay splits it: two shares, cut anywhere, then Close.
	s, err = OpenObserve(data)
	var shares [2]Share
	widths := [2]int{}
	if err == nil {
		widths[0] = cut % (s.Len() + 1)
		widths[1] = s.Len() - widths[0]
		for i := 0; i < 2 && err == nil; i++ {
			shares[i], err = s.Share(widths[i])
		}
	}
	if err == nil {
		err = s.Close()
	}
	if errClass(err) != errClass(refErr) {
		t.Fatalf("dense shares: stream %v, decoder %v", err, refErr)
	}
	if err != nil {
		return
	}
	for i, at := 0, 0; i < 2; at, i = at+widths[i], i+1 {
		want := Observe{Step: ref.Step, Vals: ref.Vals[at : at+widths[i]]}.Append(nil)
		if got := shares[i].Append(nil); !bytes.Equal(got, want) {
			t.Fatalf("dense share %d of widths %v:\n got %x\nwant %x", i, widths, got, want)
		}
	}
}

func fuzzDeltaStream(t *testing.T, data []byte, cut int) {
	var ref ObserveDelta
	refErr := ref.Decode(data)

	var ids []int
	var vals []int64
	s, err := OpenObserveDelta(data)
	for err == nil && s.Len() > 0 {
		var id int
		var v int64
		if id, v, err = s.Next(); err == nil {
			ids, vals = append(ids, id), append(vals, v)
		}
	}
	if err == nil {
		err = s.Close()
	}
	if errClass(err) != errClass(refErr) {
		t.Fatalf("delta read: stream %v, decoder %v", err, refErr)
	}
	if err == nil && (s.Step != ref.Step || !slices.Equal(ids, ref.IDs) || !slices.Equal(vals, ref.Vals)) {
		t.Fatalf("delta read: step %d ids %v values %v, decoder step %d ids %v values %v", s.Step, ids, vals, ref.Step, ref.IDs, ref.Vals)
	}

	// As a relay splits it: the ids below a bound, then all the others.
	s, err = OpenObserveDelta(data)
	var shares [2]Share
	for i, hi := range [2]int{cut, math.MaxInt} {
		if err == nil {
			shares[i], err = s.Share(hi)
		}
	}
	for err == nil && s.Len() > 0 {
		// An id of MaxInt is below no bound; Next reads what Share left.
		_, _, err = s.Next()
	}
	if err == nil {
		err = s.Close()
	}
	if errClass(err) != errClass(refErr) {
		t.Fatalf("delta shares: stream %v, decoder %v", err, refErr)
	}
	if err != nil {
		return
	}
	at := 0
	for i, sh := range shares {
		if sh.Count == 0 {
			continue
		}
		if sh.First != ref.IDs[at] {
			t.Fatalf("delta share %d starts at id %d, decoder's pair %d is id %d", i, sh.First, at, ref.IDs[at])
		}
		want := ObserveDelta{Step: ref.Step, IDs: ref.IDs[at : at+sh.Count], Vals: ref.Vals[at : at+sh.Count]}.Append(nil)
		if got := sh.Append(nil); !bytes.Equal(got, want) {
			t.Fatalf("delta share %d below %d:\n got %x\nwant %x", i, cut, got, want)
		}
		at += sh.Count
	}
	if cutAt, _ := slices.BinarySearch(ref.IDs, cut); shares[0].Count != cutAt {
		t.Fatalf("delta share below %d holds %d pairs, the decoder's ids %v have %d", cut, shares[0].Count, ref.IDs, cutAt)
	}
}
