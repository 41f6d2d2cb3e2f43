package filter

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/order"
)

func TestIntervalContains(t *testing.T) {
	iv := Interval{Lo: 3, Hi: 7}
	for k, want := range map[order.Key]bool{2: false, 3: true, 5: true, 7: true, 8: false} {
		if got := iv.Contains(k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestIntervalShapes(t *testing.T) {
	if f := Full(); f.Lo != order.NegInf || f.Hi != order.PosInf {
		t.Fatalf("Full: %+v", f)
	}
	if a := AtLeast(5); a.Lo != 5 || a.Hi != order.PosInf {
		t.Fatalf("AtLeast: %+v", a)
	}
	if a := AtMost(5); a.Lo != order.NegInf || a.Hi != 5 {
		t.Fatalf("AtMost: %+v", a)
	}
}

func TestIntervalViolates(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if v, below := iv.Violates(5); !v || !below {
		t.Fatal("5 should violate below")
	}
	if v, below := iv.Violates(25); !v || below {
		t.Fatal("25 should violate above")
	}
	if v, _ := iv.Violates(15); v {
		t.Fatal("15 should not violate")
	}
	if v, _ := iv.Violates(10); v {
		t.Fatal("boundary Lo should not violate")
	}
	if v, _ := iv.Violates(20); v {
		t.Fatal("boundary Hi should not violate")
	}
}

func TestIntervalEmptyAndString(t *testing.T) {
	s := Full().String()
	if !strings.Contains(s, "-inf") || !strings.Contains(s, "+inf") {
		t.Fatalf("String: %s", s)
	}
	if got := (Interval{Lo: 3, Hi: 9}).String(); got != "[3, 9]" {
		t.Fatalf("String: %s", got)
	}
}

func TestNewSetDefaults(t *testing.T) {
	s := NewSet(5, 2)
	if s.N() != 5 || s.K() != 2 {
		t.Fatalf("dims: N=%d K=%d", s.N(), s.K())
	}
	for i := 0; i < 5; i++ {
		if s.Interval(i) != Full() {
			t.Fatalf("node %d not full: %v", i, s.Interval(i))
		}
		if s.InTop(i) {
			t.Fatalf("node %d should start outside top-k", i)
		}
	}
}

func TestNewSetPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewSet(0, 1) },
		func() { NewSet(3, 0) },
		func() { NewSet(3, 4) },
	} {
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

func TestSetMembership(t *testing.T) {
	s := NewSet(5, 2)
	s.SetMembership([]int{4, 1})
	if !s.InTop(1) || !s.InTop(4) || s.InTop(0) {
		t.Fatal("membership wrong")
	}
	if got := s.Top(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("Top(): %v", got)
	}
	if s.CountTop() != 2 {
		t.Fatalf("CountTop: %d", s.CountTop())
	}
	// Replacing membership clears the old one.
	s.SetMembership([]int{0, 2})
	if s.InTop(1) || s.InTop(4) || !s.InTop(0) || !s.InTop(2) {
		t.Fatal("membership replacement failed")
	}
}

func TestSetMembershipPanics(t *testing.T) {
	s := NewSet(5, 2)
	for i, f := range []func(){
		func() { s.SetMembership([]int{1}) },
		func() { s.SetMembership([]int{1, 1}) },
		func() { s.SetMembership([]int{1, 9}) },
		func() { s.SetMembership([]int{-1, 1}) },
	} {
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

func TestAssignMidpoint(t *testing.T) {
	s := NewSet(4, 2)
	s.SetMembership([]int{0, 3})
	s.AssignMidpoint(100)
	if s.Interval(0) != AtLeast(100) || s.Interval(3) != AtLeast(100) {
		t.Fatal("top-k filters wrong")
	}
	if s.Interval(1) != AtMost(100) || s.Interval(2) != AtMost(100) {
		t.Fatal("outside filters wrong")
	}
}

func TestAssignMidpointKEqualsN(t *testing.T) {
	s := NewSet(3, 3)
	s.SetMembership([]int{0, 1, 2})
	s.AssignMidpoint(42)
	for i := 0; i < 3; i++ {
		if s.Interval(i) != Full() {
			t.Fatalf("k=n should give full filters, node %d has %v", i, s.Interval(i))
		}
	}
	// Full filters are always valid for k = n.
	if err := s.Validate(Column{1, 2, 3}); err != nil {
		t.Fatalf("k=n validation: %v", err)
	}
}

func TestValidateAcceptsCanonicalAssignment(t *testing.T) {
	s := NewSet(4, 2)
	s.SetMembership([]int{0, 1})
	s.AssignMidpoint(50)
	keys := []order.Key{60, 55, 40, 10}
	if err := s.Validate(Column(keys)); err != nil {
		t.Fatalf("canonical assignment should validate: %v", err)
	}
	// Boundary contact on both sides is allowed (Lemma 2.2 permits a
	// single common point).
	keys = []order.Key{50, 55, 50, 10}
	if err := s.Validate(Column(keys)); err != nil {
		t.Fatalf("boundary contact should validate: %v", err)
	}
}

func TestValidateRejectsContainmentBreak(t *testing.T) {
	s := NewSet(3, 1)
	s.SetMembership([]int{0}) // top: node 0
	s.AssignMidpoint(50)
	if err := s.Validate(Column{40, 30, 20}); err == nil {
		t.Fatal("top-k key below midpoint must fail containment")
	}
	if err := s.Validate(Column{60, 70, 20}); err == nil {
		t.Fatal("outside key above midpoint must fail containment")
	}
}

func TestValidateRejectsSeparationBreak(t *testing.T) {
	s := NewSet(3, 1)
	s.SetMembership([]int{0})
	// Cross the bounds through a band install: the top filter [10, +∞]
	// allows going below the outside filters' upper bound 20. Every key
	// sits inside its own filter, so only the separation check can fail.
	s.AssignBand(10, 20)
	err := s.Validate(Column{15, 12, 3})
	if err == nil || !strings.Contains(err.Error(), "separation") {
		t.Fatalf("expected separation error, got %v", err)
	}
}

func TestValidateLengthMismatch(t *testing.T) {
	s := NewSet(3, 1)
	if err := s.Validate(Column{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestValidateMidpointProperty(t *testing.T) {
	// For any keys with a strict gap between the k-th and (k+1)-st largest,
	// assigning the midpoint between them must validate.
	check := func(raw [6]int16, kRaw uint8) bool {
		k := int(kRaw)%5 + 1 // 1..5 with n = 6
		// Make keys distinct by composing with index.
		keys := make([]order.Key, 6)
		for i, v := range raw {
			keys[i] = order.Key(int64(v)*8 + int64(i))
		}
		// Rank nodes by key descending.
		ids := []int{0, 1, 2, 3, 4, 5}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if keys[ids[j]] > keys[ids[i]] {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
		}
		s := NewSet(6, k)
		s.SetMembership(ids[:k])
		var m order.Key
		if k == 6 {
			m = 0
		} else {
			m = order.Midpoint(keys[ids[k]], keys[ids[k-1]])
		}
		s.AssignMidpoint(m)
		return s.Validate(Column(keys)) == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
