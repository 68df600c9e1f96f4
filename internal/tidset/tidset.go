// Package tidset provides a dense bitset over thread identifiers.
//
// The fair scheduler of Musuvathi & Qadeer (Algorithm 1) manipulates
// sets of threads (the enabled set ES and the per-thread window sets
// E(t), D(t), S(t)) on every scheduling step. Thread identifiers are
// small dense integers assigned in creation order, so a bitset gives
// constant-time membership and word-parallel set algebra.
package tidset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Tid identifies a thread. Tids are assigned densely from zero in
// creation order by the engine; the zero Tid is the main thread.
type Tid int

// None is a sentinel for "no thread".
const None Tid = -1

const wordBits = 64

// Set is a set of Tids. The zero value is the empty set. Sets grow on
// demand; all binary operations accept operands of different widths.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity hint n.
func New(n int) Set {
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Of returns the set containing exactly the given tids.
func Of(tids ...Tid) Set {
	var s Set
	for _, t := range tids {
		s.Add(t)
	}
	return s
}

// Universe returns the set {0, 1, ..., n-1}.
func Universe(n int) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.Add(Tid(i))
	}
	return s
}

func (s *Set) grow(w int) {
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
}

// Add inserts t. Panics on negative t.
func (s *Set) Add(t Tid) {
	if t < 0 {
		panic(fmt.Sprintf("tidset: negative Tid %d", t))
	}
	w := int(t) / wordBits
	s.grow(w)
	s.words[w] |= 1 << (uint(t) % wordBits)
}

// Remove deletes t; removing an absent element is a no-op.
func (s *Set) Remove(t Tid) {
	if t < 0 {
		return
	}
	w := int(t) / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(t) % wordBits)
	}
}

// Contains reports whether t is in the set.
func (s Set) Contains(t Tid) bool {
	if t < 0 {
		return false
	}
	w := int(t) / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(t)%wordBits)) != 0
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset empties the set and ensures capacity for tids [0, n),
// reusing the existing backing storage where possible. It lets hot
// loops rebuild a set every step without reallocating.
func (s *Set) Reset(n int) {
	need := (n + wordBits - 1) / wordBits
	if cap(s.words) < need {
		s.words = make([]uint64, need)
		return
	}
	s.words = s.words[:need]
	clear(s.words)
}

// Words returns the set's backing words: bit b of word i is Tid 64*i+b.
// The slice aliases the set — writing a word changes the set — until
// the set next grows: a hot loop reads a set, or fills one Reset has
// sized, a word at a time instead of a call or a closure per element.
func (s Set) Words() []uint64 { return s.words }

// CopyFrom makes s equal to o, reusing s's backing storage where
// possible.
func (s *Set) CopyFrom(o Set) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		s.words = s.words[:len(o.words)]
	}
	copy(s.words, o.words)
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// UnionWith adds every element of o to s in place.
func (s *Set) UnionWith(o Set) {
	s.grow(len(o.words) - 1)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o, in place.
func (s *Set) IntersectWith(o Set) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &= o.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// MinusWith removes every element of o from s in place.
func (s *Set) MinusWith(o Set) {
	for i := 0; i < len(s.words) && i < len(o.words); i++ {
		s.words[i] &^= o.words[i]
	}
}

// Equal reports whether s and o contain the same elements.
func (s Set) Equal(o Set) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range a {
		var v uint64
		if i < len(b) {
			v = b[i]
		}
		if w != v {
			return false
		}
	}
	return true
}

// Slice returns the elements in increasing order.
func (s Set) Slice() []Tid {
	out := make([]Tid, 0, s.Len())
	s.ForEach(func(t Tid) { out = append(out, t) })
	return out
}

// ForEach calls f for each element in increasing order.
func (s Set) ForEach(f func(Tid)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(Tid(i*wordBits + b))
			w &^= 1 << uint(b)
		}
	}
}

// Min returns the smallest element, or None if the set is empty.
func (s Set) Min() Tid {
	for i, w := range s.words {
		if w != 0 {
			return Tid(i*wordBits + bits.TrailingZeros64(w))
		}
	}
	return None
}

// String renders the set as "{0, 3, 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(t Tid) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", t)
	})
	b.WriteByte('}')
	return b.String()
}
