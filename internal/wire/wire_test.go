package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/order"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 129, 1 << 14, 1<<14 - 1, 1 << 21, 1 << 63, math.MaxUint64}
	for _, x := range cases {
		enc := AppendUvarint(nil, x)
		if len(enc) != SizeUvarint(x) {
			t.Fatalf("SizeUvarint(%d) = %d, encoded %d", x, SizeUvarint(x), len(enc))
		}
		got, n, err := Uvarint(enc)
		if err != nil || got != x || n != len(enc) {
			t.Fatalf("Uvarint(%v) = %d, %d, %v; want %d", enc, got, n, err, x)
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	check := func(x uint64, suffix []byte) bool {
		enc := AppendUvarint(nil, x)
		got, n, err := Uvarint(append(enc, suffix...))
		return err == nil && got == x && n == len(enc)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintProperty(t *testing.T) {
	check := func(x int64) bool {
		enc := AppendVarint(nil, x)
		if len(enc) != SizeVarint(x) {
			return false
		}
		got, n, err := Varint(enc)
		return err == nil && got == x && n == len(enc)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintExtremes(t *testing.T) {
	for _, x := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1} {
		enc := AppendVarint(nil, x)
		got, _, err := Varint(enc)
		if err != nil || got != x {
			t.Fatalf("Varint round trip of %d: got %d, %v", x, got, err)
		}
	}
}

func TestUvarintTruncated(t *testing.T) {
	enc := AppendUvarint(nil, math.MaxUint64)
	for i := 0; i < len(enc); i++ {
		if _, _, err := Uvarint(enc[:i]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d: err = %v, want ErrTruncated", i, err)
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// Eleven continuation bytes: longer than any valid uint64 encoding.
	long := bytes.Repeat([]byte{0x80}, 11)
	if _, _, err := Uvarint(long); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	// Ten bytes whose last sets bits above 2^64.
	pad := append(bytes.Repeat([]byte{0x80}, 9), 0x7f)
	if _, _, err := Uvarint(pad); !errors.Is(err, ErrOverflow) {
		t.Fatalf("padded err = %v, want ErrOverflow", err)
	}
}

func TestUvarintNonCanonical(t *testing.T) {
	// {0x80, 0x00} is a two-byte encoding of 0; only {0x00} is valid.
	if _, _, err := Uvarint([]byte{0x80, 0x00}); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("err = %v, want ErrNonCanonical", err)
	}
	if v, n, err := Uvarint([]byte{0x00}); err != nil || v != 0 || n != 1 {
		t.Fatalf("canonical zero: %d, %d, %v", v, n, err)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	check := func(lo, hi, n, k uint16, seed uint64, epsNum uint16) bool {
		in := Assign{Lo: int(lo), Hi: int(hi), N: int(n), K: int(k), Seed: seed, EpsNum: uint64(epsNum)}
		out, err := DecodeAssign(in.Append(nil))
		return err == nil && out == in
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssignRejectsBadTolerance(t *testing.T) {
	// wire is dependency-free, so MaxTolNum duplicates order's fixed-point
	// resolution; this pin keeps the two in lockstep.
	if MaxTolNum != 1<<order.TolShift {
		t.Fatalf("MaxTolNum = %d, order.TolShift implies %d", MaxTolNum, uint64(1)<<order.TolShift)
	}
	frame := Assign{Lo: 0, Hi: 4, N: 8, K: 2, Seed: 1, EpsNum: MaxTolNum}.Append(nil)
	if _, err := DecodeAssign(frame); !errors.Is(err, ErrMalformed) {
		t.Fatalf("out-of-range tolerance numerator decoded: %v", err)
	}
	frame = Assign{Lo: 0, Hi: 4, N: 8, K: 2, Seed: 1, EpsNum: MaxTolNum - 1}.Append(nil)
	if _, err := DecodeAssign(frame); err != nil {
		t.Fatalf("maximal valid tolerance numerator rejected: %v", err)
	}
}

// TestAssignGoldenBytes pins the Assign encoding: the frame below is what
// every build since the ε mode has put on the wire for this assignment,
// the ones that could also append a tolerance ladder included, but for the
// flags byte, which carries the change-coding bit since observation frames
// carry changes (parentAssign is the frame before it) and the bid-log bit
// since a Round request is answered by a bid log.
func TestAssignGoldenBytes(t *testing.T) {
	m := Assign{Lo: 2, Hi: 6, N: 8, K: 2, Seed: 99, EpsNum: 1024}
	frame := m.Append(nil)
	want := []byte{TypeAssign}
	want = AppendUvarint(want, 2)
	want = AppendUvarint(want, 6)
	want = AppendUvarint(want, 8)
	want = AppendUvarint(want, 2)
	want = AppendUvarint(want, 99)
	want = AppendUvarint(want, 1024)
	want = append(want, 0x0c) // flags: change-coded observations, bid-log answers
	if !bytes.Equal(frame, want) {
		t.Fatalf("assign changed encoding:\ngot  %x\nwant %x", frame, want)
	}
	if !bytes.Equal(frame[:len(frame)-1], parentAssign(0x00)[:len(frame)-1]) {
		t.Fatalf("assign moved a field before its flags: %x, the build before change coding wrote %x", frame, parentAssign(0x00))
	}
}

// TestAssignWithoutBidLogsRefused pins the handshake gate of the bid-log
// answer: the build before it answered a Round request with one round's
// bids and set the change-coding bit alone (0x04). Its coordinator would
// read a bid log as garbage and its hosts would answer this build's
// request with one round, so its Assign is refused — and this build's
// carries 0x08, which that build refused as unknown.
func TestAssignWithoutBidLogsRefused(t *testing.T) {
	_, err := DecodeAssign(parentAssign(0x04))
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "without bid-log answers") {
		t.Fatalf("round-by-round build's assign with flags 0x04: err = %v, want ErrMalformed (without bid-log answers)", err)
	}
	if _, err := DecodeAssign(parentAssign(0x0c)); err != nil {
		t.Fatalf("this build's flags refused: %v", err)
	}
}

// parentAssign is Assign{Lo: 2, Hi: 6, N: 8, K: 2, Seed: 99, EpsNum: 1024}
// as the last build whose observation frames carried absolute values
// encoded it: flags 0x00, or 0x01 for a monitor whose keys were its raw
// values — a key domain no build has since.
func parentAssign(flags byte) []byte {
	return []byte{0x01, 0x02, 0x06, 0x08, 0x02, 0x63, 0x80, 0x08, flags}
}

// ladderedAssign is Assign{Lo: 0, Hi: 4, N: 16, K: 3, Seed: 7, EpsNum:
// 52428, Ladder: {0, 17476, 34952}} as the build with the per-level
// tolerance ladder encoded it: flags 0x02, or 0x03 with raw-value keys,
// then the ladder section.
func ladderedAssign(flags byte) []byte {
	return []byte{0x01, 0x00, 0x04, 0x10, 0x03, 0x07, 0xcc, 0x99, 0x03, flags,
		0x03, 0x00, 0xc4, 0x88, 0x01, 0x88, 0x91, 0x02}
}

// TestForeignBuildFramesFailClosed feeds the decoders frames encoded by
// the build that still had the per-level tolerance ladder, and by the last
// build whose observation frames carried absolute values (golden bytes,
// recorded there). Link frames carry no version, so a mixed-build tree
// must die at the Assign handshake rather than run with half of it
// silently dropping the ladder, or reading changes as values. A frame of a
// monitor whose keys were its raw values — flag 0x01, beside the
// change-coding bit in the build just before this one (0x05) — is refused
// as well: its peers would read raw values as tie-break keys. The gate
// holds the other way too: this build's Assign sets a bit those builds
// refuse as unknown.
func TestForeignBuildFramesFailClosed(t *testing.T) {
	for _, flags := range []byte{0x02, 0x03} {
		_, err := DecodeAssign(ladderedAssign(flags))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown assign flags") {
			t.Fatalf("laddered assign with flags 0x%02x: err = %v, want ErrMalformed (unknown assign flags)", flags, err)
		}
	}
	if _, err := DecodeAssign(parentAssign(0x00)); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "without change-coded observations") {
		t.Fatalf("absolute-value build's assign with flags 0x00: err = %v, want ErrMalformed (without change-coded observations)", err)
	}
	for _, flags := range []byte{0x01, 0x05} {
		_, err := DecodeAssign(parentAssign(flags))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown assign flags") {
			t.Fatalf("raw-value keyed assign with flags 0x%02x: err = %v, want ErrMalformed (unknown assign flags)", flags, err)
		}
	}
	frame := Assign{Lo: 2, Hi: 6, N: 8, K: 2, Seed: 99, EpsNum: 1024}.Append(nil)
	if flags := frame[len(frame)-1]; flags != 0x0c {
		t.Fatalf("assign flags 0x%02x: want the change-coding bit 0x04 and the bid-log bit 0x08, which no earlier build knew", flags)
	}
	// A TreeStats reply of that build led with an absorb-counter section.
	// The ladder-free form — [type][0 absorbs][levels…], what every ε = 0
	// or depth-1 peer answered — must be rejected for its trailing bytes,
	// not read as zero levels.
	var m TreeStats
	for _, frame := range [][]byte{
		{0x16, 0x00, 0x00},                         // a leaf: no absorbs, no levels
		{0x16, 0x00, 0x01, 0x09, 0x09, 0x78, 0x2c}, // an interior: no absorbs, one level
	} {
		if err := m.Decode(frame); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("ladder-free foreign tree stats %x: err = %v, want ErrTrailingBytes", frame, err)
		}
	}
	// A laddered one can alias — 3 absorbs + 2 levels is 12 fields after a
	// count of 3, a well-formed 3-level frame — which is why the handshake,
	// not this decoder, is the gate.
	alias := []byte{0x16, 0x03, 0x07, 0x03, 0x01, 0x02, 0x09, 0x09, 0x78, 0x2c, 0x02, 0x02, 0x1e, 0x0b}
	if err := m.Decode(alias); err != nil || len(m.Levels) != 3 {
		t.Fatalf("aliasing foreign tree stats: err = %v, %d levels; the doc comment above is stale", err, len(m.Levels))
	}
}

func TestTreeStatsRoundTrip(t *testing.T) {
	in := TreeStats{
		Levels: []LevelIO{
			{Down: 40, Up: 40, DownBytes: 900, UpBytes: 410},
			{Down: 10, Up: 10, DownBytes: 220, UpBytes: 101},
		},
	}
	frame := in.Append(nil)
	var out TreeStats
	if err := out.Decode(frame); err != nil {
		t.Fatalf("tree stats rejected: %v", err)
	}
	if !reflect.DeepEqual(out.Levels, in.Levels) {
		t.Fatalf("tree stats round trip: got %+v, want %+v", out, in)
	}
	// The empty reply of a leaf shard round-trips too.
	var leaf TreeStats
	frame = TreeStats{}.Append(nil)
	if err := leaf.Decode(frame); err != nil {
		t.Fatalf("leaf tree stats rejected: %v", err)
	}
	if len(leaf.Levels) != 0 {
		t.Fatalf("leaf tree stats not empty: %+v", leaf)
	}
}

func TestStatsPollBare(t *testing.T) {
	frame := AppendBare(nil, TypeStatsPoll)
	if err := DecodeBare(frame, TypeStatsPoll); err != nil {
		t.Fatalf("stats poll rejected: %v", err)
	}
	if err := DecodeBare(append(frame, 1), TypeStatsPoll); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestApproxBoundsRoundTrip(t *testing.T) {
	check := func(lo int64, width uint32) bool {
		hi := lo + int64(width)
		if hi < lo {
			hi = lo
		}
		in := ApproxBounds{Lo: lo, Hi: hi}
		out, err := DecodeApproxBounds(in.Append(nil))
		return err == nil && out == in
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeApproxBounds(ApproxBounds{Lo: 5, Hi: 4}.Append(nil)); !errors.Is(err, ErrMalformed) {
		t.Fatal("inverted approx bounds decoded")
	}
	// The charged size must equal the encoded length.
	for _, m := range []ApproxBounds{{0, 0}, {-1 << 50, 1 << 50}, {7, 1 << 20}} {
		if got, want := SizeApproxBounds(m.Lo, m.Hi), int64(len(m.Append(nil))); got != want {
			t.Fatalf("SizeApproxBounds(%d, %d) = %d, encoded %d", m.Lo, m.Hi, got, want)
		}
	}
}

// baseline returns value i's baseline in m: Prev[i], or zero.
func baseline(m Observe, i int) int64 {
	if m.Prev == nil {
		return 0
	}
	return m.Prev[i]
}

func TestObserveRoundTrip(t *testing.T) {
	check := func(step uint32, vals, prev []int64) bool {
		in := Observe{Step: int64(step), Vals: vals}
		if len(prev) >= len(vals) {
			in.Prev = prev[:len(vals)] // else a zero baseline
		}
		var out Observe
		if err := out.Decode(in.Append(nil)); err != nil {
			return false
		}
		if out.Step != in.Step || len(out.Vals) != len(vals) || out.Prev != nil {
			return false
		}
		for i := range vals {
			// Decode yields the change; the receiver adds its baseline back,
			// with the wrap the subtraction took.
			if out.Vals[i]+baseline(in, i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	// Changes that wrap: the far ends of int64 against each other.
	in := Observe{Step: 1, Vals: []int64{math.MaxInt64, math.MinInt64, 0}, Prev: []int64{math.MinInt64, math.MaxInt64, math.MinInt64}}
	var out Observe
	if err := out.Decode(in.Append(nil)); err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Vals {
		if out.Vals[i]+in.Prev[i] != v {
			t.Fatalf("value %d: change %d on %d is not %d", i, out.Vals[i], in.Prev[i], v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a baseline shorter than the values encoded")
		}
	}()
	Observe{Vals: []int64{1, 2}, Prev: []int64{1}}.Append(nil)
}

func TestObserveEmpty(t *testing.T) {
	in := Observe{Step: 7}
	var out Observe
	out.Vals = make([]int64, 3) // decode must shrink, not keep stale values
	if err := out.Decode(in.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if out.Step != 7 || len(out.Vals) != 0 {
		t.Fatalf("decoded %+v", out)
	}
}

// TestObserveAppendSizesOnAMiss pins the dense encoder's buffer handling:
// its bytes are those of one AppendVarint per value, whatever the buffer
// it is given; into nil it allocates at most twice (the header, then the
// frame sized exactly) and leaves a buffer of exactly the frame's size, no
// worst-case room past it; and into a buffer that already held the frame it
// allocates nothing.
func TestObserveAppendSizesOnAMiss(t *testing.T) {
	reference := func(m Observe) []byte {
		dst := append([]byte{TypeObserve}, AppendUvarint(nil, uint64(m.Step))...)
		dst = AppendUvarint(dst, uint64(len(m.Vals)))
		for i, v := range m.Vals {
			dst = AppendVarint(dst, v-baseline(m, i))
		}
		return dst
	}
	vals := make([]int64, 1<<15)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = int64(i) // 1 to 3 bytes
		case 1:
			vals[i] = -int64(i) << 20
		case 2:
			vals[i] = math.MaxInt64 - int64(i) // 10 bytes
		default:
			vals[i] = int64(i) * 7 % 1000003
		}
	}
	small := make([]int64, len(vals))
	for i := range small {
		small[i] = int64(i % 64) // one byte each
	}
	for _, n := range []int{0, 1, 255, 256, 257, 1000, len(vals)} {
		for _, m := range []Observe{
			{Step: 9, Vals: vals[:n]},
			{Step: 9, Vals: small[:n]},
			{Step: 9, Vals: vals[:n], Prev: vals[:n]},  // no change: one byte each
			{Step: 9, Vals: small[:n], Prev: vals[:n]}, // changes longer than the values
		} {
			want := reference(m)
			if got := m.Append(nil); !bytes.Equal(got, want) {
				t.Fatalf("%d values into nil: encoding differs from one AppendVarint per value", n)
			}
			// A buffer too short for the frame, with bytes before it: the
			// miss grows it to the bytes before and the frame.
			short := append(make([]byte, 0, 300), 0xaa)
			if got := m.Append(short); !bytes.Equal(got[1:], want) || got[0] != 0xaa {
				t.Fatalf("%d values after a prefix: encoding differs from one AppendVarint per value", n)
			}
		}
	}

	m := Observe{Step: 1 << 20, Vals: vals}
	var frame []byte
	if allocs := testing.AllocsPerRun(10, func() { frame = m.Append(nil) }); allocs > 2 {
		t.Fatalf("%d values into nil: %.0f allocations, want at most 2", len(vals), allocs)
	}
	if cap(frame) != len(frame) {
		t.Fatalf("a %d-byte frame into nil leaves a %d-byte buffer: a miss grows to the frame's size exactly", len(frame), cap(frame))
	}
	buf := m.Append(nil)
	if allocs := testing.AllocsPerRun(10, func() { buf = m.Append(buf[:0]) }); allocs != 0 {
		t.Fatalf("re-encoding into the buffer that held the frame: %.0f allocations, want 0", allocs)
	}
	if !bytes.Equal(buf, reference(m)) {
		t.Fatal("re-encoded frame differs from one AppendVarint per value")
	}
}

func TestObserveDeltaRoundTrip(t *testing.T) {
	check := func(step uint32, gaps []uint8, vals []int64) bool {
		n := len(gaps)
		if len(vals) < n {
			n = len(vals)
		}
		in := ObserveDelta{Step: int64(step)}
		id := 0
		for i := 0; i < n; i++ {
			id += int(gaps[i]) + 1
			in.IDs = append(in.IDs, id)
			in.Vals = append(in.Vals, vals[i])
		}
		if len(vals) > n && n > 0 { // a baseline indexed by id: what is left of vals, cycled
			in.Prev = make([]int64, id+1)
			for i := range in.Prev {
				in.Prev[i] = vals[n+i%(len(vals)-n)]
			}
		}
		var out ObserveDelta
		if err := out.Decode(in.Append(nil)); err != nil {
			return false
		}
		if out.Step != in.Step || len(out.IDs) != len(in.IDs) || out.Prev != nil {
			return false
		}
		for i, id := range in.IDs {
			base := int64(0)
			if in.Prev != nil {
				base = in.Prev[id]
			}
			if out.IDs[i] != id || out.Vals[i]+base != in.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObserveDeltaRejectsNonIncreasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing ids")
		}
	}()
	ObserveDelta{IDs: []int{3, 3}, Vals: []int64{1, 2}}.Append(nil)
}

func TestRoundRoundTrip(t *testing.T) {
	check := func(tag uint8, r uint16, best int64, bound uint16, step uint32, want uint16) bool {
		in := Round{Tag: tag, Round: int(r), Best: best, Bound: int(bound), Step: int64(step), Want: int(want)}
		out, err := DecodeRound(in.Append(nil))
		return err == nil && out == in
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	check := func(topViol, outViol bool, ids []uint16, keys []int64) bool {
		n := len(ids)
		if len(keys) < n {
			n = len(keys)
		}
		in := Reply{TopViol: topViol, OutViol: outViol}
		for i := 0; i < n; i++ {
			in.IDs = append(in.IDs, int(ids[i]))
			in.Keys = append(in.Keys, keys[i])
		}
		var out Reply
		if err := out.Decode(in.Append(nil)); err != nil {
			return false
		}
		if out.TopViol != topViol || out.OutViol != outViol || len(out.IDs) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if out.IDs[i] != in.IDs[i] || out.Keys[i] != in.Keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReplyZeroBids covers the empty-filter-set / no-sender case: a reply
// carrying flags but not a single bid.
func TestReplyZeroBids(t *testing.T) {
	in := Reply{TopViol: true}
	out := Reply{IDs: []int{9}, Keys: []int64{9}}
	if err := out.Decode(in.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if !out.TopViol || out.OutViol || len(out.IDs) != 0 || len(out.Keys) != 0 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestReplyExtremeKeys(t *testing.T) {
	in := Reply{IDs: []int{0, 1 << 30}, Keys: []int64{math.MinInt64, math.MaxInt64}}
	var out Reply
	if err := out.Decode(in.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if out.Keys[0] != math.MinInt64 || out.Keys[1] != math.MaxInt64 {
		t.Fatalf("decoded keys %v", out.Keys)
	}
}

func TestWinnerMidpointBidBestPresence(t *testing.T) {
	w := Winner{Target: 17, IsTop: true}
	if got, err := DecodeWinner(w.Append(nil)); err != nil || got != w {
		t.Fatalf("winner: %+v, %v", got, err)
	}
	for _, m := range []Midpoint{{Mid: -5}, {Mid: math.MaxInt64}, {Full: true, Mid: 0}} {
		if got, err := DecodeMidpoint(m.Append(nil)); err != nil || got != m {
			t.Fatalf("midpoint: %+v, %v", got, err)
		}
	}
	b := Bid{ID: 3, Key: math.MinInt64}
	if got, err := DecodeBid(b.Append(nil)); err != nil || got != b {
		t.Fatalf("bid: %+v, %v", got, err)
	}
	be := Best{Round: 11, Key: -1}
	if got, err := DecodeBest(be.Append(nil)); err != nil || got != be {
		t.Fatalf("best: %+v, %v", got, err)
	}
	pr := Presence{ID: 1024}
	if got, err := DecodePresence(pr.Append(nil)); err != nil || got != pr {
		t.Fatalf("presence: %+v, %v", got, err)
	}
	bo := Bounds{Target: 5, Lo: math.MinInt64, Hi: math.MaxInt64}
	if got, err := DecodeBounds(bo.Append(nil)); err != nil || got != bo {
		t.Fatalf("bounds: %+v, %v", got, err)
	}
}

func TestShardDigestRoundTrip(t *testing.T) {
	digests := []ShardDigest{
		{},
		{OK: true, ID: 12, Key: -999, Ups: 7, UpBytes: 31, Bcasts: 5, BcastBytes: 40},
		{OK: true, ID: 1 << 20, Key: math.MaxInt64, Ups: 1 << 40, UpBytes: 1 << 41, Bcasts: 3, BcastBytes: 9},
		{OK: true, ID: 9, Key: 70, Ups: 30, UpBytes: 150, Bcasts: 5, BcastBytes: 40,
			Rest: []Bid{{ID: 3, Key: 70}, {ID: 1 << 30, Key: -5}, {ID: 0, Key: math.MinInt64}}},
	}
	var reused ShardDigest
	for _, d := range digests {
		enc := d.Append(nil)
		got, err := DecodeShardDigest(enc)
		if err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("shard digest: %+v, %v", got, err)
		}
		// Decoding into a digest that held a longer list leaves nothing of it.
		reused.Rest = append(reused.Rest[:0], Bid{ID: 1, Key: 1}, Bid{ID: 2, Key: 2}, Bid{ID: 3, Key: 3}, Bid{ID: 4, Key: 4})
		if err := reused.Decode(enc); err != nil || !bytes.Equal(reused.Append(nil), enc) {
			t.Fatalf("shard digest decoded into a used one: %+v, %v", reused, err)
		}
	}
	if _, err := DecodeShardDigest([]byte{TypeShardDigest, 0x02, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown flags: %v", err)
	}
	if _, err := DecodeShardDigest([]byte{TypeShardDigest, 0x01, 0, 0, 0, 0, 0, 0, 9, 1, 1}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a list longer than the frame: %v", err)
	}
}

func TestBareMessages(t *testing.T) {
	for _, typ := range []byte{TypeReady, TypeResetBegin, TypeShutdown, TypeQuery} {
		if err := DecodeBare(AppendBare(nil, typ), typ); err != nil {
			t.Fatalf("bare 0x%02x: %v", typ, err)
		}
	}
	if err := DecodeBare([]byte{TypeReady, 0x00}, TypeReady); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing: %v", err)
	}
	if err := DecodeBare([]byte{TypeReady}, TypeShutdown); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("wrong type: %v", err)
	}
}

// TestTruncatedFrames chops every valid frame at every length and asserts
// the decoders fail cleanly instead of panicking or succeeding.
func TestTruncatedFrames(t *testing.T) {
	frames := [][]byte{
		Assign{Lo: 2, Hi: 9, N: 16, K: 3, Seed: math.MaxUint64}.Append(nil),
		Observe{Step: 5, Vals: []int64{1, -200, math.MaxInt64}}.Append(nil),
		ObserveDelta{Step: 5, IDs: []int{0, 7}, Vals: []int64{-1, 1 << 40}}.Append(nil),
		Round{Tag: 2, Round: 3, Best: math.MinInt64, Bound: 100, Step: 9}.Append(nil),
		Reply{TopViol: true, IDs: []int{1, 300}, Keys: []int64{-7, 7}}.Append(nil),
		Winner{Target: 300, IsTop: true}.Append(nil),
		Midpoint{Mid: -123456}.Append(nil),
		Bid{ID: 5, Key: -9}.Append(nil),
		Best{Round: 2, Key: 9}.Append(nil),
		Presence{ID: 99}.Append(nil),
		Bounds{Target: 3, Lo: -10, Hi: 10}.Append(nil),
		ShardDigest{OK: true, ID: 8, Key: -3, Ups: 6, UpBytes: 20, Bcasts: 4, BcastBytes: 12}.Append(nil),
		ShardDigest{OK: true, ID: 8, Key: 33, Ups: 6, UpBytes: 20, Bcasts: 4, BcastBytes: 12, Rest: []Bid{{ID: 300, Key: 32}, {ID: 1, Key: -3}}}.Append(nil),
		ApproxBounds{Lo: -4000, Hi: 4400}.Append(nil),
		Batch{Frames: [][]byte{
			Winner{Target: 3, IsTop: true}.Append(nil),
			Round{Tag: 4, Round: 0, Best: -1, Bound: 8, Step: 2}.Append(nil),
		}}.Append(nil),
	}
	for fi, frame := range frames {
		for cut := 0; cut < len(frame); cut++ {
			p := frame[:cut]
			var err error
			switch {
			case cut == 0:
				_, err = MsgType(p)
			default:
				err = decodeAny(p)
			}
			if err == nil {
				t.Fatalf("frame %d truncated at %d decoded successfully", fi, cut)
			}
		}
		// The full frame must decode.
		if err := decodeAny(frame); err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
	}
}

// decodeAny dispatches a frame to its typed decoder, mirroring what a
// receive loop does.
func decodeAny(p []byte) error {
	typ, err := MsgType(p)
	if err != nil {
		return err
	}
	switch typ {
	case TypeAssign:
		_, err = DecodeAssign(p)
	case TypeObserve:
		var m Observe
		err = m.Decode(p)
	case TypeObserveDelta:
		var m ObserveDelta
		err = m.Decode(p)
	case TypeRound:
		_, err = DecodeRound(p)
	case TypeReply:
		var m Reply
		err = m.Decode(p)
	case TypeWinner:
		_, err = DecodeWinner(p)
	case TypeMidpoint:
		_, err = DecodeMidpoint(p)
	case TypeBid:
		_, err = DecodeBid(p)
	case TypeBest:
		_, err = DecodeBest(p)
	case TypePresence:
		_, err = DecodePresence(p)
	case TypeBounds:
		_, err = DecodeBounds(p)
	case TypeShardDigest:
		_, err = DecodeShardDigest(p)
	case TypeApproxBounds:
		_, err = DecodeApproxBounds(p)
	case TypeBatch:
		var m Batch
		err = m.Decode(p)
	case TypeReady, TypeResetBegin, TypeShutdown, TypeQuery:
		err = DecodeBare(p, typ)
	default:
		err = ErrUnknownType
	}
	return err
}

// TestSizesMatchEncodings pins every Size helper to the length of the
// encoding it claims to measure.
func TestSizesMatchEncodings(t *testing.T) {
	ids := []int{0, 1, 127, 128, 1 << 20}
	keys := []int64{0, -1, 1, 63, -64, math.MinInt64, math.MaxInt64}
	for _, id := range ids {
		for _, k := range keys {
			if got, want := SizeBid(id, k), int64(len(Bid{ID: id, Key: k}.Append(nil))); got != want {
				t.Fatalf("SizeBid(%d, %d) = %d, want %d", id, k, got, want)
			}
			if got, want := SizeBest(id, k), int64(len(Best{Round: id, Key: k}.Append(nil))); got != want {
				t.Fatalf("SizeBest(%d, %d) = %d, want %d", id, k, got, want)
			}
		}
		if got, want := SizePresence(id), int64(len(Presence{ID: id}.Append(nil))); got != want {
			t.Fatalf("SizePresence(%d) = %d, want %d", id, got, want)
		}
	}
	for _, k := range keys {
		if got, want := SizeMidpoint(k), int64(len(Midpoint{Mid: k}.Append(nil))); got != want {
			t.Fatalf("SizeMidpoint(%d) = %d, want %d", k, got, want)
		}
		if got, want := SizeBounds(7, k, -k), int64(len(Bounds{Target: 7, Lo: k, Hi: -k}.Append(nil))); got != want {
			t.Fatalf("SizeBounds(7, %d, %d) = %d, want %d", k, -k, got, want)
		}
	}
	if got := SizeQuery(); got != int64(len(AppendBare(nil, TypeQuery))) {
		t.Fatalf("SizeQuery() = %d", got)
	}
}

// TestBatchRoundTrip covers the multi-frame envelope: arbitrary message
// mixes survive a round trip with sub-frame boundaries intact, and the
// decoder reuses its Frames capacity.
func TestBatchRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{}, // an empty batch is valid, if useless
		{AppendBare(nil, TypeResetBegin)},
		{
			Winner{Target: 5, IsTop: true}.Append(nil),
			Round{Tag: 4, Round: 0, Best: math.MinInt64, Bound: 1 << 16, Step: 77}.Append(nil),
		},
		{
			Midpoint{Mid: -9}.Append(nil),
			Observe{Step: 3, Vals: []int64{1, 2, 3}}.Append(nil),
			Reply{TopViol: true}.Append(nil),
		},
	}
	var m Batch
	for ci, frames := range cases {
		enc := Batch{Frames: frames}.Append(nil)
		if err := m.Decode(enc); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if len(m.Frames) != len(frames) {
			t.Fatalf("case %d: %d sub-frames, want %d", ci, len(m.Frames), len(frames))
		}
		for i := range frames {
			if !bytes.Equal(m.Frames[i], frames[i]) {
				t.Fatalf("case %d sub-frame %d: %x vs %x", ci, i, m.Frames[i], frames[i])
			}
			if err := decodeAny(m.Frames[i]); err != nil {
				t.Fatalf("case %d sub-frame %d does not decode: %v", ci, i, err)
			}
		}
	}
}

// TestBatchRejectsMalformed: oversized counts, over-long sub-frames,
// empty sub-frames and nested batches all fail cleanly.
func TestBatchRejectsMalformed(t *testing.T) {
	var m Batch
	huge := append([]byte{TypeBatch}, AppendUvarint(nil, math.MaxUint32)...)
	if err := m.Decode(huge); !errors.Is(err, ErrMalformed) {
		t.Fatalf("huge count: %v, want ErrMalformed", err)
	}
	overlong := append([]byte{TypeBatch, 0x01}, AppendUvarint(nil, 100)...)
	overlong = append(overlong, TypeReady)
	if err := m.Decode(overlong); !errors.Is(err, ErrMalformed) {
		t.Fatalf("over-long sub-frame: %v, want ErrMalformed", err)
	}
	empty := []byte{TypeBatch, 0x01, 0x00}
	if err := m.Decode(empty); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty sub-frame: %v, want ErrMalformed", err)
	}
	inner := Batch{Frames: [][]byte{AppendBare(nil, TypeReady)}}.Append(nil)
	nested := Batch{}.Append(nil)[:1] // header only
	nested = AppendUvarint(nested, 1)
	nested = AppendUvarint(nested, uint64(len(inner)))
	nested = append(nested, inner...)
	if err := m.Decode(nested); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nested batch: %v, want ErrMalformed", err)
	}
	trailing := append(Batch{Frames: [][]byte{AppendBare(nil, TypeReady)}}.Append(nil), 0x00)
	if err := m.Decode(trailing); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing bytes: %v, want ErrTrailingBytes", err)
	}
}

// TestMalformedCounts feeds length fields that exceed the frame. The
// decoders must reject them up front rather than over-allocating.
func TestMalformedCounts(t *testing.T) {
	huge := AppendUvarint(nil, math.MaxUint32)
	obs := append([]byte{TypeObserve, 0x01}, huge...) // step=1, count=2^32-1, no data
	var o Observe
	if err := o.Decode(obs); !errors.Is(err, ErrMalformed) {
		t.Fatalf("observe: %v, want ErrMalformed", err)
	}
	rep := append([]byte{TypeReply, 0x00}, huge...)
	var r Reply
	if err := r.Decode(rep); !errors.Is(err, ErrMalformed) {
		t.Fatalf("reply: %v, want ErrMalformed", err)
	}
	del := append([]byte{TypeObserveDelta, 0x01}, huge...)
	var d ObserveDelta
	if err := d.Decode(del); !errors.Is(err, ErrMalformed) {
		t.Fatalf("delta: %v, want ErrMalformed", err)
	}
}

// TestDecodeCountGuardsDoNotWrap feeds every decoder whose count guard
// once multiplied the count the counts that wrap the product to zero: the
// guard must still see a count the frame cannot hold — ErrMalformed, not a
// panic of a slice sized by it (Batch) nor ErrTruncated from a loop that
// should never have started (the other four).
func TestDecodeCountGuardsDoNotWrap(t *testing.T) {
	delta := []byte{TypeCheckpointDelta, 2, 1, EngineSeq, 0, 0, 0} // gen, base, engine, seed, flags, empty machine section
	for _, tc := range []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"Batch", AppendUvarint([]byte{TypeBatch}, 1<<63), func(p []byte) error { var m Batch; return m.Decode(p) }},
		{"Reply", AppendUvarint([]byte{TypeReply, 0}, 1<<63), func(p []byte) error { var m Reply; return m.Decode(p) }},
		{"ShardDigest", AppendUvarint([]byte{TypeShardDigest, flagOK, 0, 0, 0, 0, 0, 0}, 1<<63), func(p []byte) error { _, err := DecodeShardDigest(p); return err }},
		{"TreeStats", AppendUvarint([]byte{TypeTreeStats}, 1<<62), func(p []byte) error { var m TreeStats; return m.Decode(p) }},
		{"CheckpointDelta", sealRaw(AppendUvarint(delta, 1<<63)), func(p []byte) error { var m CheckpointDelta; return m.Decode(p) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %d-byte frame panicked the decoder: %v", tc.name, len(tc.frame), r)
				}
			}()
			if err := tc.decode(tc.frame); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %v, want ErrMalformed", tc.name, err)
			}
		}()
	}
}
