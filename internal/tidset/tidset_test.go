package tidset

import (
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero Set not empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Contains(0) || s.Contains(100) {
		t.Fatal("empty set contains element")
	}
	if s.Min() != None {
		t.Fatalf("Min of empty = %d, want None", s.Min())
	}
	if s.String() != "{}" {
		t.Fatalf("String = %q, want {}", s.String())
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	s.Add(0)
	s.Add(63)
	s.Add(64) // crosses word boundary
	s.Add(130)
	for _, want := range []Tid{0, 63, 64, 130} {
		if !s.Contains(want) {
			t.Errorf("missing %d", want)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	s.Remove(63)
	if s.Contains(63) {
		t.Error("63 still present after Remove")
	}
	s.Remove(999) // absent, no-op
	s.Remove(-1)  // negative, no-op
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestContainsNegative(t *testing.T) {
	s := Of(1, 2)
	if s.Contains(-1) || s.Contains(None) {
		t.Fatal("Contains(negative) = true")
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestOfAndUniverse(t *testing.T) {
	s := Of(3, 1, 4)
	if got := s.String(); got != "{1, 3, 4}" {
		t.Fatalf("Of String = %q", got)
	}
	u := Universe(5)
	if u.Len() != 5 || !u.Contains(0) || !u.Contains(4) || u.Contains(5) {
		t.Fatalf("Universe(5) = %v", u)
	}
	if Universe(0).Len() != 0 {
		t.Fatal("Universe(0) not empty")
	}
}

// union, intersect and minus are the value forms of the in-place
// operations, for writing algebraic laws.
func union(a, b Set) Set     { c := a.Clone(); c.UnionWith(b); return c }
func intersect(a, b Set) Set { c := a.Clone(); c.IntersectWith(b); return c }
func minus(a, b Set) Set     { c := a.Clone(); c.MinusWith(b); return c }

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 64)
	b := Of(2, 3, 4, 200)

	if got := union(a, b); got.String() != "{1, 2, 3, 4, 64, 200}" {
		t.Errorf("union = %v", got)
	}
	if got := intersect(a, b); got.String() != "{2, 3}" {
		t.Errorf("intersect = %v", got)
	}
	if got := minus(a, b); got.String() != "{1, 64}" {
		t.Errorf("minus = %v", got)
	}
	if got := minus(b, a); got.String() != "{4, 200}" {
		t.Errorf("minus = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Of(1, 2, 3)
	a.UnionWith(Of(3, 4, 100))
	if a.String() != "{1, 2, 3, 4, 100}" {
		t.Fatalf("UnionWith = %v", a)
	}
	a.IntersectWith(Of(2, 4, 100, 101))
	if a.String() != "{2, 4, 100}" {
		t.Fatalf("IntersectWith = %v", a)
	}
	a.MinusWith(Of(4))
	if a.String() != "{2, 100}" {
		t.Fatalf("MinusWith = %v", a)
	}
	// In-place ops with wider operands must grow/clip correctly.
	small := Of(1)
	small.IntersectWith(Of(1, 900))
	if small.String() != "{1}" {
		t.Fatalf("IntersectWith wide = %v", small)
	}
}

func TestEqualAcrossWidths(t *testing.T) {
	a := Of(1, 65)
	b := Of(1, 65)
	b.Add(300)
	b.Remove(300) // same elements, wider backing array
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal fails across widths")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Fatal("unequal sets Equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2)
	c := a.Clone()
	c.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone shares storage")
	}
	var empty Set
	if !empty.Clone().Empty() {
		t.Fatal("Clone of empty not empty")
	}
}

func TestSliceForEachMin(t *testing.T) {
	s := Of(5, 0, 70)
	got := s.Slice()
	want := []Tid{0, 5, 70}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	if s.Min() != 0 {
		t.Fatalf("Min = %d", s.Min())
	}
}

func TestQuickAlgebraLaws(t *testing.T) {
	mk := func(xs []uint8) Set {
		var s Set
		for _, x := range xs {
			s.Add(Tid(x))
		}
		return s
	}
	// De Morgan-ish law on finite sets: (a ∪ b) \ c == (a \ c) ∪ (b \ c).
	law1 := func(xa, xb, xc []uint8) bool {
		a, b, c := mk(xa), mk(xb), mk(xc)
		return minus(union(a, b), c).Equal(union(minus(a, c), minus(b, c)))
	}
	if err := quick.Check(law1, nil); err != nil {
		t.Error(err)
	}
	// Intersection distributes over union.
	law2 := func(xa, xb, xc []uint8) bool {
		a, b, c := mk(xa), mk(xb), mk(xc)
		return intersect(a, union(b, c)).Equal(union(intersect(a, b), intersect(a, c)))
	}
	if err := quick.Check(law2, nil); err != nil {
		t.Error(err)
	}
	// Len(a ∪ b) = Len(a) + Len(b) - Len(a ∩ b).
	law3 := func(xa, xb []uint8) bool {
		a, b := mk(xa), mk(xb)
		return union(a, b).Len() == a.Len()+b.Len()-intersect(a, b).Len()
	}
	if err := quick.Check(law3, nil); err != nil {
		t.Error(err)
	}
	// x ∈ a \ b  iff  x ∈ a ∧ x ∉ b.
	law4 := func(xa, xb []uint8, x uint8) bool {
		a, b := mk(xa), mk(xb)
		return minus(a, b).Contains(Tid(x)) == (a.Contains(Tid(x)) && !b.Contains(Tid(x)))
	}
	if err := quick.Check(law4, nil); err != nil {
		t.Error(err)
	}
}

func TestWordsAliasesTheSet(t *testing.T) {
	var s Set
	s.Reset(130)
	w := s.Words()
	if len(w) != 3 {
		t.Fatalf("Reset(130) gives %d words, want 3", len(w))
	}
	w[0] |= 1 << 5
	w[2] |= 1 << 1
	if s.String() != "{5, 129}" {
		t.Fatalf("after writing words: %v", s)
	}
	s.Remove(5)
	if s.Words()[0] != 0 {
		t.Fatal("Words does not read what Remove wrote")
	}
}
