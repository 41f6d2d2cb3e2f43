package coord

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/wire"
)

// FuzzObserveChanges is the round trip of a change-coded observation frame
// through a host bank. A bank is given a baseline the way a coordinator
// gives it one — a first frame coded against zero, what a bank holds after
// Assign — and then new values coded against that baseline, once as a
// dense frame and once as a sparse frame over a subset of the nodes. For
// any values, at any magnitude, with changes that wrap int64:
//
//   - the flags, the error and every key equal those of a twin bank fed
//     the absolute values (ObserveDense, or Observe per value for the
//     sparse frame), so a value outside the domain is the error the
//     reference fails with, at the node it fails at, and never a panic;
//   - the frame-fed bank's column is at the tier of the twin's;
//   - when no value is refused, value(i) is the new value of every node;
//   - the baseline kept in a Column, as a root keeps its mirror, is at the
//     tier its values need, and the frames coded against it at that tier,
//     and its replay against zero, are byte for byte what an int64 mirror
//     codes.
//
// The input bytes are read nine at a time: a selector and a raw int64, from
// which value() picks magnitudes at and past the domain's ends, int64's
// ends, small steps from the baseline and arbitrary bits. Seeds across
// ±2²³ and ±2³¹ widen a 24-bit column 3 → 4 → 6 bytes in one frame, over
// ranges from every lo mod 4; seeds across ±2³¹ widen a narrow column
// mid-frame, and cross a wider baseline back; seeds across ±2⁴⁷ widen a
// column 3 → 6 → 8 bytes in one frame, 3 → 8 at one value, and start one at
// 6 bytes from the baseline.
func FuzzObserveChanges(f *testing.F) {
	seed := func(sels ...byte) []byte {
		var p []byte
		for i, s := range sels {
			p = append(p, s)
			p = binary.LittleEndian.AppendUint64(p, uint64(i)*0x9e3779b97f4a7c15)
		}
		return p
	}
	// A selector's high bit puts its node in the sparse frame too.
	f.Add(uint16(5), uint16(0), seed(1, 1, 1, 1, 1, 0x84, 4, 0x84, 4, 0x84, 9))
	f.Add(uint16(5), uint16(2), seed(2, 3, 1, 0x85, 0x83, 0x82, 9))
	f.Add(uint16(5), uint16(0), seed(1, 1, 1, 1, 1, 0x81, 0x81, 0x81, 0x81, 0x81, 9))
	f.Add(uint16(300), uint16(7), seed(2, 3, 2, 3, 0, 0x87, 0x87, 0x84, 0x81, 0x80, 0x55))
	f.Add(uint16(1), uint16(0), seed(3, 0x82))
	f.Add(uint16(64), uint16(1), seed(0, 0, 0, 0, 0, 0))
	// Values across ±2³¹, selector 0 taking the raw value as it is: a
	// narrow baseline that the frames widen, and a wide one they cross back.
	raw := func(sels []byte, raws ...int64) []byte {
		var p []byte
		for i, r := range raws {
			p = append(p, sels[i%len(sels)])
			p = binary.LittleEndian.AppendUint64(p, uint64(r))
		}
		return p
	}
	f.Add(uint16(4), uint16(0), raw([]byte{0, 0, 0, 0, 0x80, 0, 0x80, 0x80, 0}, 1, -5, 1<<31-1, -1<<31, 1<<31, 7, -1<<31-1, 1<<40, 3))
	f.Add(uint16(3), uint16(1), raw([]byte{0, 0, 0x80, 0x80, 0}, 1<<31+9, -1<<33, 1<<31-1, -1<<31, 0))
	// Four nodes: a narrow baseline, then 2³¹ and 2⁴⁷ in one frame; 2⁴⁷ at
	// once; and a baseline at 2⁴⁰ whose frame stays within ±2⁴⁷.
	const b47 = 1 << 47
	f.Add(uint16(3), uint16(0), raw([]byte{0, 0x80}, 1, -5, 7, 3, 1<<31, 2, b47, -b47-1, 0))
	f.Add(uint16(3), uint16(0), raw([]byte{0x80}, 1, 2, 3, 4, 5, b47, 6, -7, 0))
	f.Add(uint16(3), uint16(0), raw([]byte{0x80, 0}, 1<<40, -1<<40, 1<<31, 0, 1<<40+1, 5, -b47, b47-1, 0))
	// Seven nodes from lo = 0, 1, 2 and 3: a baseline at ±2²³'s edges, then
	// a frame across ±2²³ and ±2³¹.
	const b23 = 1 << 23
	for lo := range 4 {
		base := []int64{b23 - 1, -b23, 0, 7, -b23, 2, 1}[:7-lo]
		vals := []int64{b23, -b23 - 1, 1<<31 - 1, -1<<31 - 1, 5, b23 - 1, -b23}[:7-lo]
		f.Add(uint16(6), uint16(lo), raw([]byte{0, 0x80}, append(append(base, vals...), 0)...))
	}
	f.Fuzz(func(t *testing.T, n, lo uint16, data []byte) {
		nodes := int(n)%300 + 1
		first := int(lo) % nodes
		width := nodes - first
		maxVal := order.MaxValueFor(nodes)
		next := func() (sel byte, raw int64) {
			if len(data) < 9 {
				data = nil
				return 0, 0
			}
			sel, raw = data[0], int64(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			return sel, raw
		}
		// value draws one observation, base being the node's baseline.
		value := func(base int64) (int64, byte) {
			sel, raw := next()
			switch sel % 8 {
			case 1:
				return raw % (maxVal + 1), sel // anywhere in the domain
			case 2:
				return maxVal, sel
			case 3:
				return -maxVal, sel
			case 4:
				return base + int64(int8(raw)), sel // a small step, maybe out
			case 5:
				return math.MaxInt64, sel
			case 6:
				return math.MinInt64, sel
			case 7:
				if raw < 0 {
					return -maxVal - 1, sel
				}
				return maxVal + 1, sel
			}
			return raw, sel
		}
		// The baseline is what a bank can hold: a value in the domain.
		base := make([]int64, width)
		for i := range base {
			v, _ := value(0)
			if v > maxVal || v < -maxVal {
				v %= maxVal + 1
			}
			base[i] = v
		}
		vals := make([]int64, width)
		touched := make([]bool, width)
		for i := range vals {
			var sel byte
			vals[i], sel = value(base[i])
			touched[i] = sel&0x80 != 0
		}
		mid, _ := value(0)
		if mid > maxVal || mid < -maxVal {
			mid %= maxVal + 1
		}
		where := fmt.Sprintf("n=%d range [%d, %d)", nodes, first, nodes)

		// The coordinator's side: a mirror over every id, and its frames.
		mirror := make([]int64, nodes)
		copy(mirror[first:], base)
		dense := wire.Observe{Step: 2, Vals: vals, Prev: mirror[first:]}.Append(nil)
		var ids []int
		var sparse []int64
		for i, hit := range touched {
			if hit {
				ids = append(ids, first+i)
				sparse = append(sparse, vals[i])
			}
		}
		delta := wire.ObserveDelta{Step: 2, IDs: ids, Vals: sparse, Prev: mirror}.Append(nil)

		// The mirror kept as a root keeps it, in a column at the tier its
		// values need: the frames coded against it, and the replay of it
		// against zero, are byte for byte the ones the int64 mirror codes.
		col := NewColumn(nodes)
		col.Put(0, mirror)
		if got, want := col.Tier(), tierOf(mirror); got != want {
			t.Fatalf("%s: a mirror of %v is at %d bytes a node, want %d", where, mirror, got, want)
		}
		fr := mirrorFrames{where, first, vals, ids, sparse, dense, delta, wire.Observe{Step: 1, Vals: mirror[first:]}.Append(nil)}
		switch col.Tier() {
		case Tier24:
			holdFrames(t, fr, col.Int24s())
		case Tier32:
			holdFrames(t, fr, col.Int32s())
		case Tier48:
			holdFrames(t, fr, col.Int48s())
		}

		// Four banks over the range, each given the baseline and the same
		// installs: two read frames, two the absolute values.
		newTwin := func() *Nodes {
			b := NewNodes(nodes, first, nodes, 3, false, order.Tol{})
			s, err := wire.OpenObserve(wire.Observe{Step: 1, Vals: base}.Append(nil))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.ObserveStream(&s); err != nil {
				t.Fatalf("%s: baseline refused: %v", where, err)
			}
			for i := range base {
				if b.value(i) != base[i] {
					t.Fatalf("%s: node %d holds %d after a frame coded against zero, want %d", where, first+i, b.value(i), base[i])
				}
			}
			b.ResetBegin()
			for i := 0; i < width; i += 3 {
				b.Winner(first+i, true)
			}
			key, _ := b.Encode(first, mid)
			b.Midpoint(key, false)
			return b
		}
		type answer struct {
			top, out bool
			err      string
		}
		check := func(kind string, got, want *Nodes, ga, wa answer, set []int64) {
			if ga != wa {
				t.Fatalf("%s: %s frame answers %+v, absolute values %+v", where, kind, ga, wa)
			}
			if got.tier() != want.tier() {
				t.Fatalf("%s: %s frame leaves the column at %d bytes a node, absolute values at %d", where, kind, got.tier(), want.tier())
			}
			if !slices.Equal(got.keys(), want.keys()) || !slices.Equal(got.top, want.top) {
				t.Fatalf("%s: %s frame leaves keys or membership other than the absolute values do", where, kind)
			}
			if ga.err != "<nil>" {
				return
			}
			for i := range set {
				if got.value(i) != set[i] {
					t.Fatalf("%s: %s frame leaves node %d at %d, want %d", where, kind, first+i, got.value(i), set[i])
				}
			}
		}

		got, want := newTwin(), newTwin()
		s, err := wire.OpenObserve(dense)
		if err != nil {
			t.Fatal(err)
		}
		gt, gout, gerr := got.ObserveStream(&s)
		wt, wo, werr := want.ObserveDense(vals, 2)
		check("dense", got, want, answer{gt, gout, fmt.Sprint(gerr)}, answer{wt, wo, fmt.Sprint(werr)}, vals)

		got, want = newTwin(), newTwin()
		ds, err := wire.OpenObserveDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		gt, gout, gerr = got.ObserveDeltaStream(&ds)
		wt, wo, werr = false, false, error(nil)
		after := slices.Clone(base)
		for j, id := range ids {
			t1, o1, err := want.Observe(id, sparse[j], 2)
			if err != nil {
				werr = err
				break
			}
			wt, wo = wt || t1, wo || o1
			after[id-first] = sparse[j]
		}
		check("sparse", got, want, answer{gt, gout, fmt.Sprint(gerr)}, answer{wt, wo, fmt.Sprint(werr)}, after)
	})
}

// mirrorFrames are the frames FuzzObserveChanges codes against an int64
// mirror: dense, delta, and the replay of the mirror's range against zero.
type mirrorFrames struct {
	where              string
	first              int
	vals               []int64
	ids                []int
	sparse             []int64
	dense, delta, zero []byte
}

// holdFrames fails unless the frames coded against mirror, a column of a
// narrower tier, are fr's.
func holdFrames[V wire.Value](t *testing.T, fr mirrorFrames, mirror []V) {
	t.Helper()
	if got := wire.AppendObserve(nil, 2, fr.vals, mirror[fr.first:]); !bytes.Equal(got, fr.dense) {
		t.Fatalf("%s: a dense frame coded against the %T mirror is % x, against the int64 one % x", fr.where, mirror, got, fr.dense)
	}
	if got := wire.AppendObserveDelta(nil, 2, fr.ids, fr.sparse, mirror); !bytes.Equal(got, fr.delta) {
		t.Fatalf("%s: a sparse frame coded against the %T mirror is % x, against the int64 one % x", fr.where, mirror, got, fr.delta)
	}
	if got := wire.AppendObserve(nil, 1, mirror[fr.first:], []V(nil)); !bytes.Equal(got, fr.zero) {
		t.Fatalf("%s: the %T mirror replays as % x, the int64 one as % x", fr.where, mirror, got, fr.zero)
	}
}
