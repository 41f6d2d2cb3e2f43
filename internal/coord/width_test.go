package coord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// keys returns every hosted node's key, in id order.
func (b *Nodes) keys() []order.Key {
	keys := make([]order.Key, b.n)
	for i := range keys {
		keys[i] = b.Key(b.lo + i)
	}
	return keys
}

// tier returns the width the bank keeps its column at.
func (b *Nodes) tier() Tier { return b.col.Tier() }

// tierOf is the reference for the narrowest tier that holds every value of
// vals, one value at a time.
func tierOf(vals []int64) Tier {
	t := Tier24
	for _, v := range vals {
		switch {
		case v < -1<<47 || v >= 1<<47:
			t = Tier64
		case v < math.MinInt32 || v > math.MaxInt32:
			t = max(t, Tier48)
		case v < -1<<23 || v >= 1<<23:
			t = max(t, Tier32)
		}
	}
	return t
}

// widthSubject is one way of hosting a range in a bank whose column the
// fuzz target watches, and the 64-bit key reference it must match.
type widthSubject struct {
	name  string
	bank  *Nodes
	views []*Nodes    // what the batches are fed through: the bank itself, or Sub views
	ref   []*refNodes // the reference's views, one per view
	whole *refNodes
	feed  func(s *widthSubject, v int, ids []int, vals []int64, step int64) (bool, bool, error)
	held  Tier // the tier every value the bank took needs
}

// feedDirect is a batch as the sequential engine feeds it: the bank's range
// kernel for a dense batch, Observe per node for a sparse one.
func feedDirect(s *widthSubject, v int, ids []int, vals []int64, step int64) (top, out bool, err error) {
	view := s.views[v]
	if ids == nil {
		return view.ObserveDense(vals, step)
	}
	for j, id := range ids {
		t, o, err := view.Observe(id, vals[j], step)
		if err != nil {
			return top, out, err
		}
		top, out = top || t, out || o
	}
	return top, out, nil
}

// feedFrames is a batch as a host reads it: the frame a coordinator codes
// against its mirror of the bank's values.
func feedFrames(s *widthSubject, v int, ids []int, vals []int64, step int64) (bool, bool, error) {
	view := s.views[v]
	mirror := make([]int64, view.hi)
	for i := range view.n {
		mirror[view.lo+i] = view.value(i)
	}
	if ids == nil {
		st, err := wire.OpenObserve(wire.Observe{Step: step, Vals: vals, Prev: mirror[view.lo:]}.Append(nil))
		if err != nil {
			return false, false, err
		}
		return view.ObserveStream(&st)
	}
	st, err := wire.OpenObserveDelta(wire.ObserveDelta{Step: step, IDs: ids, Vals: vals, Prev: mirror}.Append(nil))
	if err != nil {
		return false, false, err
	}
	return view.ObserveDeltaStream(&st)
}

// FuzzBankWidth holds a bank's value column, at any tier and widened at any
// point, to a 64-bit key bank (refnodes_test.go). Dense and sparse batches
// whose values cross ±2²³, ±2³¹, ±2⁴⁷ and ±MaxValue anywhere — the first
// batch included, which widens the 24-bit column a bank is born with — are applied
// to three banks over one range: one fed as the sequential engine feeds its
// bank, one fed the frames a host reads, and one through Sub views, which
// refuse what their column's tier cannot hold (ErrNarrow) until the bank
// widens, as a host of views does, and the batch is fed again. After every batch each bank must
// answer what the reference answers — the flags and the error of every
// view — and hold its keys; its column's tier is the one the values it took
// need (3, 4, 6 or 8 bytes); every violation and membership cohort runs,
// through Run with a bid log, the log the reference's rounds write, winners
// alike; and the bank's checkpoint frame holds the reference's values and
// restores into a bank that writes it again, its column at the tier those
// values need.
func FuzzBankWidth(f *testing.F) {
	seed := func(raws ...int64) []byte {
		var p []byte
		for i, r := range raws {
			p = append(p, byte(i*37))
			p = binary.LittleEndian.AppendUint64(p, uint64(r))
		}
		return p
	}
	// batches lays out batches of a kind, then selector, raw pairs, each
	// before a small install.
	batches := func(bs ...[]int64) []byte {
		var p []byte
		for _, b := range bs {
			kind, pairs := b[0], b[1:]
			p = append(p, byte(kind))
			p = binary.LittleEndian.AppendUint64(p, 0)
			for j := 0; j < len(pairs); j += 2 {
				p = append(p, byte(pairs[j]))
				p = binary.LittleEndian.AppendUint64(p, uint64(pairs[j+1]))
			}
			p = append(p, 0)
			p = binary.LittleEndian.AppendUint64(p, 0)
		}
		return p
	}
	const b23, b31, b47 = 1 << 23, 1 << 31, 1 << 47
	// A batch is a kind byte — bit 0 sparse — and one selector and raw
	// int64 per node, then the next install's selector and raw; a
	// selector's high bit puts its node in a sparse batch.
	f.Add(uint16(7), uint16(0), uint8(1), seed(0, 1, 2, 3, b31, -b31, b31-1, -b31-1))
	f.Add(uint16(70), uint16(3), uint8(2), seed(b31, 5, 6, math.MaxInt64, 1<<40))
	f.Add(uint16(300), uint16(40), uint8(3), seed(1, 2, -b31, 3, b31))
	f.Add(uint16(1), uint16(0), uint8(0), seed(b31-1))
	// A narrow column widened in the middle of a dense run, values after
	// the widening one still to come; and one widened with values held.
	f.Add(uint16(4), uint16(3), uint8(0xd6), []byte("000000000000000000000000000000000000000000000100000000"))
	f.Add(uint16(7), uint16(76), uint8(0x15), []byte("000000000000000000100000000"))
	// Four nodes in two views, [0, 3) and [3, 4): 3 → 6 → 8 bytes over
	// three dense batches; 3 → 8 in one; and 3 → 6 at the first batch,
	// dense and sparse, up to 2⁴⁷−1 and its negation, the last values 6
	// bytes hold.
	const dense, sparse = 0, 1
	small := []int64{dense, 0, 1, 0, 2, 0, -3, 0, 4}
	f.Add(uint16(3), uint16(0), uint8(4), batches(
		small,
		[]int64{dense, 1, 0, 0x41, -1, 0, 5, 0, -6},
		[]int64{dense, 0, 7, 0x41, 0, 0x42, -1, 0, 8}))
	f.Add(uint16(3), uint16(0), uint8(4), batches(
		small,
		[]int64{dense, 0, 9, 6, b47 + 3, 0, 2, 6, -b47 - 1}))
	f.Add(uint16(3), uint16(0), uint8(4), batches(
		[]int64{dense, 1, 0, 0x42, 0, 0x41, -1, 0x42, 1},
		[]int64{sparse, 0x81, 5, 0, 0, 0x80 | 6, b47 - 1, 0x80 | 6, -b47}))
	f.Add(uint16(3), uint16(0), uint8(4), batches(
		[]int64{sparse, 0x81, 5, 0x80, 1, 0x80 | 6, -b47, 0, 0}))
	// Eleven nodes from lo = 0, 1, 2 and 3 in two views, whose first nodes
	// lie at every lo mod 4: 3 → 4 bytes across ±2²³ (selector bit 0x20),
	// at a view's last node too, then 4 → 6 across ±2³¹ in a sparse batch.
	for lo := range 4 {
		narrow, cross, wide := []int64{dense}, []int64{dense}, []int64{sparse}
		for i := lo; i < 11; i++ {
			narrow = append(narrow, 0, int64(i%5-2))
			cross = append(cross, [][2]int64{{0x21, -1}, {0x22, 0}, {0x21, 0}}[i%3][:]...)
			wide = append(wide, [][2]int64{{0x82, 0}, {0x81, -1}, {0x01, 0}, {0x82, -1}}[i%4][:]...)
		}
		f.Add(uint16(10), uint16(lo), uint8(4), batches(narrow, cross, wide))
	}
	f.Fuzz(func(t *testing.T, n16, cut16 uint16, shape uint8, data []byte) {
		n := int(n16)%600 + 1
		lo := int(cut16) % n
		maxVal := order.MaxValueFor(n)
		next := func() (sel byte, raw int64) {
			if len(data) < 9 {
				data = nil
				return 0, 0
			}
			sel, raw = data[0], int64(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			return sel, raw
		}
		value := func() (int64, bool) {
			sel, raw := next()
			small := int64(int8(raw))
			var v int64
			switch sel % 8 {
			case 0:
				v = small
			case 1, 2:
				m := int64(b31) // around ±2³¹, or ±2⁴⁷ (bit 0x40), or ±2²³ (bit 0x20)
				if sel&0x40 != 0 {
					m = b47
				} else if sel&0x20 != 0 {
					m = b23
				}
				if sel%8 == 2 {
					m = -m
				}
				v = m + small
			case 3:
				v = maxVal + small%4 // around MaxValue, maybe past it
			case 4:
				v = -maxVal - small%4
			case 5:
				v = raw % (maxVal + 1) // anywhere in the domain
			case 6:
				v = raw
			default:
				v = int64(int32(raw)) // anywhere narrow
			}
			return v, sel&0x80 != 0
		}

		// The views' cuts: none, or one or two inside the range.
		cuts := []int{lo}
		if w := n - lo; w > 1 {
			for c := int(shape>>2) % 3; c > 0; c-- {
				cuts = append(cuts, lo+1+int(shape)*(c+7)%(w-1))
			}
		}
		cuts = append(cuts, n)
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		subjects := []*widthSubject{{name: "direct", feed: feedDirect}, {name: "frames", feed: feedFrames}, {name: "views", feed: feedDirect}}
		for _, s := range subjects {
			s.bank, s.whole = NewNodes(n, lo, n, 5, false, order.Tol{}), newRefNodes(n, lo, n, 5, order.Tol{})
			s.views, s.ref = []*Nodes{s.bank}, []*refNodes{s.whole}
			if s.name == "views" {
				s.views, s.ref = nil, nil
				for c := 0; c+1 < len(cuts); c++ {
					s.views = append(s.views, s.bank.Sub(cuts[c], cuts[c+1]))
					s.ref = append(s.ref, s.whole.Sub(cuts[c], cuts[c+1]))
				}
			}
		}

		for step := int64(1); step <= 6 && (step == 1 || len(data) > 0); step++ {
			kind, _ := next()
			sparse := kind&1 != 0
			vals := make([]int64, n-lo)
			var ids []int
			var svals []int64
			for i := range vals {
				v, touched := value()
				vals[i] = v
				if touched {
					ids, svals = append(ids, lo+i), append(svals, v)
				}
			}
			where := fmt.Sprintf("n=%d range [%d, %d) cuts %v step %d sparse %v", n, lo, n, cuts, step, sparse)
			for _, s := range subjects {
				for v, view := range s.views {
					var bids []int
					bvals := vals[view.lo-lo : view.hi-lo]
					if sparse {
						bids, bvals = []int{}, nil
						for j, id := range ids {
							if id >= view.lo && id < view.hi {
								bids, bvals = append(bids, id), append(bvals, svals[j])
							}
						}
					}
					top, out, err := s.feed(s, v, bids, bvals, step)
					if errors.Is(err, ErrNarrow) {
						if s.bank.tier() == Tier64 {
							t.Fatalf("%s: %s view %d refuses a value its int64 column holds", where, s.name, v)
						}
						s.bank.Widen(bvals)
						top, out, err = s.feed(s, v, bids, bvals, step)
					}
					rt, ro, rerr := refFeed(s.ref[v], bids, bvals, step)
					if top != rt || out != ro || fmt.Sprint(err) != fmt.Sprint(rerr) {
						t.Fatalf("%s: %s view %d answers %v %v %v, the reference %v %v %v", where, s.name, v, top, out, err, rt, ro, rerr)
					}
				}
				checkWidth(t, where, s)
				for _, tag := range []uint8{TagViolMin, TagViolMax, TagHandMin, TagHandMax, TagReset} {
					for v, view := range s.views {
						if got, want := runLog(view, tag, step), refLog(s.ref[v], tag, step); got != want {
							t.Fatalf("%s: %s view %d, tag %d: Run logs %s, the reference's rounds %s", where, s.name, v, tag, got, want)
						}
					}
				}
			}
			// The installs the next batch is checked against: every third
			// node a member, the midpoint at a value a batch may cross.
			mid, _ := value()
			mid = max(min(mid, maxVal), -maxVal)
			for _, s := range subjects {
				for _, b := range []interface {
					ResetBegin()
					Winner(int, bool)
					Midpoint(order.Key, bool)
				}{s.bank, s.whole} {
					b.ResetBegin()
					for id := lo; id < n; id += 3 {
						b.Winner(id, true)
					}
					b.Midpoint(order.NewCodec(n).Encode(mid, lo), false)
				}
			}
		}
	})
}

// refFeed is a batch fed to the reference, Observe per node.
func refFeed(ref *refNodes, ids []int, vals []int64, step int64) (top, out bool, err error) {
	for j, v := range vals {
		id := ref.lo + j
		if ids != nil {
			id = ids[j]
		}
		t, o, err := ref.Observe(id, v, step)
		if err != nil {
			return top, out, err
		}
		top, out = top || t, out || o
	}
	return top, out, nil
}

// checkWidth holds subject s's bank to its reference's keys, its column's
// tier to the values it took, and its checkpoint frame to the reference's
// values, restored at the tier those need.
func checkWidth(t *testing.T, where string, s *widthSubject) {
	t.Helper()
	b, r := s.bank, s.whole
	vals := make([]int64, b.n)
	for i := range vals {
		var id int
		vals[i], id = r.codec.Decode(r.ns[i].key)
		if id != b.lo+i {
			t.Fatalf("%s: the reference's node %d decodes to id %d", where, b.lo+i, id)
		}
	}
	need := tierOf(vals)
	s.held = max(s.held, need)
	if !slices.Equal(b.keys(), s.whole.keysOf()) {
		t.Fatalf("%s: %s bank holds keys %v, the reference %v", where, s.name, b.keys(), s.whole.keysOf())
	}
	if got := b.tier(); got != s.held {
		t.Fatalf("%s: %s bank's column at %d bytes, the values it took need %d", where, s.name, got, s.held)
	}
	frame := b.Snapshot(nil)
	var bs wire.BankState
	if err := bs.Decode(frame); err != nil || !slices.Equal(bs.Vals, vals) {
		t.Fatalf("%s: %s bank's frame holds %v (%v), the reference %v", where, s.name, bs.Vals, err, vals)
	}
	back, err := RestoreNodes(frame, b.seed)
	if err != nil {
		t.Fatalf("%s: %s bank's frame refused: %v", where, s.name, err)
	}
	if !bytes.Equal(back.Snapshot(nil), frame) || !slices.Equal(back.keys(), b.keys()) || back.tier() != need {
		t.Fatalf("%s: %s bank's frame restores another bank (at %d bytes, its values need %d)", where, s.name, back.tier(), need)
	}
}

// keysOf returns the reference's keys in id order.
func (b *refNodes) keysOf() []order.Key {
	keys := make([]order.Key, len(b.ns))
	for i := range b.ns {
		keys[i] = b.ns[i].key
	}
	return keys
}

// runLog runs one execution of tag over view, as a host does, and renders
// its bid log and winners.
func runLog(view *Nodes, tag uint8, step int64) string {
	var ex protocol.Exec
	var w wire.BidLogWriter
	ex.Begin(view.n+3, 2, MinimumTag(tag), comm.Discard, nil, step)
	w.Begin(nil, view.lo)
	view.Run(tag, step, &ex, &w)
	return fmt.Sprintf("%x %v", w.End(), ex.Winners())
}

// refLog is runLog over the reference, its rounds driven one by one.
func refLog(ref *refNodes, tag uint8, step int64) string {
	var ex protocol.Exec
	var w wire.BidLogWriter
	ex.Begin(len(ref.ns)+3, 2, MinimumTag(tag), comm.Discard, nil, step)
	w.Begin(nil, ref.lo)
	for ex.More() {
		r := ex.Round()
		ref.Round(tag, r, ex.Best(), ex.Bound(), step, func(id int, key order.Key) {
			ex.Bid(id, key)
			w.Add(r, id, int64(key))
		})
		ex.EndRound()
	}
	return fmt.Sprintf("%x %v", w.End(), ex.Winners())
}

// TestFreshViewsObserveConcurrently takes sixteen Sub views of a bank just
// built, calls nothing else on it, and has every view observe a dense step
// at once and read it back in its checkpoint frame (run it with -race): the
// column they share exists from the bank's birth, so no view allocates one
// under another; a view's loads and stores of its 3-byte entries stay in
// them, short of the next view's first and of the last of the view before,
// which other goroutines write (sixteen views, so that some view reads its
// first entry after the view before writes its last, whatever order the
// goroutines run in); and the bank then holds every value. In the int32 and wide arms each view is given a value past
// ±2²³ or ±2⁴⁰: each refuses it (ErrNarrow), storing nothing of it, the
// bank widens (Widen), and the repeated sweep stores every value.
func TestFreshViewsObserveConcurrently(t *testing.T) {
	const n, nv = 1 << 12, 16
	for _, arm := range []struct {
		name string
		wide int64 // given to the middle node of each view, negated in every other; 0: none
		tier Tier
	}{{"narrow", 0, Tier24}, {"int32", 1 << 23, Tier32}, {"wide", 1 << 40, Tier48}} {
		t.Run(arm.name, func(t *testing.T) {
			b := NewNodes(n, 0, n, 1, false, order.Tol{})
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i + 1)
			}
			views, wide := make([]*Nodes, nv), make([]int, nv)
			for v := range views {
				views[v], wide[v] = b.Sub(v*n/nv, (v+1)*n/nv), v*n/nv+n/nv/2
				if arm.wide != 0 {
					vals[wide[v]] = []int64{arm.wide, -arm.wide - 1}[v%2]
				}
			}
			frames := make([][]byte, len(views))
			sweep := func() []error {
				errs := make([]error, len(views))
				var wg sync.WaitGroup
				for v, view := range views {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, _, errs[v] = view.ObserveDense(vals[view.Lo():view.Hi()], 1); errs[v] == nil {
							frames[v] = view.Snapshot(nil)
						}
					}()
				}
				wg.Wait()
				return errs
			}
			errs := sweep()
			if arm.wide != 0 {
				for v, err := range errs {
					if !errors.Is(err, ErrNarrow) {
						t.Fatalf("view %d given %d answers %v, want ErrNarrow", v, vals[wide[v]], err)
					}
					if got := b.value(wide[v]); got != 0 {
						t.Fatalf("view %d refused %d and stored %d", v, vals[wide[v]], got)
					}
				}
				b.Widen(vals)
				errs = sweep()
			}
			for v, err := range errs {
				if err != nil {
					t.Fatalf("view %d: %v", v, err)
				}
				var bs wire.BankState
				if err := bs.Decode(frames[v]); err != nil || !slices.Equal(bs.Vals, vals[views[v].Lo():views[v].Hi()]) {
					t.Fatalf("view %d read back other values (%v)", v, err)
				}
			}
			if b.tier() != arm.tier {
				t.Fatalf("the bank's column is at %d bytes, want %d", b.tier(), arm.tier)
			}
			for i, want := range vals {
				if got := b.value(i); got != want {
					t.Fatalf("node %d holds %d, want %d", i, got, want)
				}
			}
		})
	}
}
