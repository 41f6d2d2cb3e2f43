package order

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCodec(16)
	check := func(v int32, idRaw uint8) bool {
		id := int(idRaw) % 16
		k := c.Encode(int64(v), id)
		gv, gid := c.Decode(k)
		return gv == int64(v) && gid == id
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeNegativeValues(t *testing.T) {
	c := NewCodec(4)
	k := c.Encode(-5, 2)
	v, id := c.Decode(k)
	if v != -5 || id != 2 {
		t.Fatalf("round trip of negative value: got (%d,%d)", v, id)
	}
}

func TestEncodeOrderPreserving(t *testing.T) {
	c := NewCodec(8)
	check := func(v1, v2 int32, id1Raw, id2Raw uint8) bool {
		id1, id2 := int(id1Raw)%8, int(id2Raw)%8
		if v1 == v2 && id1 == id2 {
			return true
		}
		k1, k2 := c.Encode(int64(v1), id1), c.Encode(int64(v2), id2)
		switch {
		case v1 < v2:
			return k1 < k2
		case v1 > v2:
			return k1 > k2
		default: // equal values: smaller id wins (gets larger key)
			return (id1 < id2) == (k1 > k2)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeInjective(t *testing.T) {
	c := NewCodec(5)
	seen := make(map[Key]struct{})
	for v := int64(-3); v <= 3; v++ {
		for id := 0; id < 5; id++ {
			k := c.Encode(v, id)
			if _, dup := seen[k]; dup {
				t.Fatalf("collision at v=%d id=%d", v, id)
			}
			seen[k] = struct{}{}
		}
	}
}

func TestEncodePanics(t *testing.T) {
	c := NewCodec(3)
	cases := []func(){
		func() { c.Encode(0, -1) },
		func() { c.Encode(0, 3) },
		func() { c.Encode(c.MaxValue()+1, 0) },
		func() { NewCodec(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMaxValueBoundary(t *testing.T) {
	c := NewCodec(1000)
	// The extreme admissible values must not panic and must round trip.
	for _, v := range []int64{c.MaxValue(), -c.MaxValue()} {
		k := c.Encode(v, 999)
		gv, gid := c.Decode(k)
		if gv != v || gid != 999 {
			t.Fatalf("boundary round trip failed for %d: (%d,%d)", v, gv, gid)
		}
	}
}

// TestEncodeNeverProducesSentinels pins the sentinel-freedom contract at
// the extreme corners of the admissible domain. Power-of-two node counts
// are the regression: with the old bound (MaxInt64-(n-1))/n, the key of
// (MaxValue, id 0) equalled PosInf exactly whenever n divides 2^63.
func TestEncodeNeverProducesSentinels(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 64, 1000, 1 << 20} {
		c := NewCodec(n)
		mv := c.MaxValue()
		for _, tc := range []struct {
			v  int64
			id int
		}{{mv, 0}, {mv, n - 1}, {-mv, 0}, {-mv, n - 1}} {
			if k := c.Encode(tc.v, tc.id); k == PosInf || k == NegInf {
				t.Fatalf("n=%d: Encode(%d, %d) produced sentinel %d", n, tc.v, tc.id, k)
			}
		}
		if MaxValueFor(n) != mv {
			t.Fatalf("n=%d: MaxValueFor disagrees with Codec.MaxValue", n)
		}
	}
}

func TestMidpoint(t *testing.T) {
	cases := []struct{ lo, hi, want Key }{
		{0, 10, 5},
		{0, 1, 0},
		{5, 5, 5},
		{-10, 10, 0},
		{NegInf, PosInf, -1},
	}
	for _, c := range cases {
		if got := Midpoint(c.lo, c.hi); got != c.want {
			t.Fatalf("Midpoint(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestMidpointNoOverflow(t *testing.T) {
	m := Midpoint(PosInf-2, PosInf)
	if m != PosInf-1 {
		t.Fatalf("midpoint near PosInf: %d", m)
	}
	m = Midpoint(NegInf, NegInf+2)
	if m != NegInf+1 {
		t.Fatalf("midpoint near NegInf: %d", m)
	}
}

func TestMidpointInRangeProperty(t *testing.T) {
	check := func(a, b int64) bool {
		lo, hi := Key(a), Key(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		m := Midpoint(lo, hi)
		return m >= lo && m <= hi
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMidpointPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Midpoint(2, 1)
}

func TestMinMax(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min/Max broken")
	}
	if Max(NegInf, PosInf) != PosInf || Min(NegInf, PosInf) != NegInf {
		t.Fatal("Min/Max with sentinels broken")
	}
}

func TestNeg(t *testing.T) {
	if Neg(PosInf) != NegInf || Neg(NegInf) != PosInf {
		t.Fatal("sentinel negation broken")
	}
	if Neg(5) != -5 || Neg(Neg(5)) != 5 {
		t.Fatal("negation not involutive")
	}
}

func TestNegReversesOrder(t *testing.T) {
	check := func(a, b int64) bool {
		// Avoid the sentinel values themselves; Neg treats them specially.
		ka, kb := Key(a), Key(b)
		if ka == NegInf || kb == NegInf || ka == PosInf || kb == PosInf {
			return true
		}
		if ka == kb {
			return Neg(ka) == Neg(kb)
		}
		return (ka < kb) == (Neg(ka) > Neg(kb))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueIsDecodeWithoutTheDivision holds the exact division by shift and
// modular inverse to Decode: for node counts odd, even and powers of two,
// at both ends of the value domain, at zero and at random values, Value of
// the key Encode produced is the value that went in.
func TestValueIsDecodeWithoutTheDivision(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 24, 1000, 1 << 14, 1<<14 + 1, 3 << 17, 1<<31 - 1} {
		c := NewCodec(n)
		ids := []int{0, n / 2, n - 1}
		vals := []int64{0, 1, -1, c.MaxValue(), -c.MaxValue(), c.MaxValue() / 3, -c.MaxValue() / 7}
		for _, id := range ids {
			for _, v := range vals {
				if got := c.Value(c.Encode(v, id), id); got != v {
					t.Fatalf("n=%d: Value(Encode(%d, %d)) = %d", n, v, id, got)
				}
			}
		}
		check := func(v int64, idRaw uint32) bool {
			v %= c.MaxValue() + 1
			id := int(idRaw) % n
			k := c.Encode(v, id)
			dv, did := c.Decode(k)
			return c.Value(k, id) == v && dv == v && did == id
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
