package por

// This file is the one binary encoding of the DPOR payloads that leave a
// process: a Unit, and through the Codec the unit report's payload
// (search.DporResult, whose layout sits beside its type). MarshalJSON
// carries an encoding as one base64 string, so every JSON envelope that
// holds one — a lease grant, a result post, a ledger record, a spool
// entry — uses the codec without code of its own. docs/DPOR.md ("Wire
// format") describes the format. In short: a version byte, varints
// (zigzag when signed), 8-byte hashes and length-prefixed op kinds; a
// decoder checks every length against the bytes left before it
// allocates, allocates per slice rather than per element, and refuses
// trailing bytes and non-minimal varints, so what it accepts re-encodes
// to the same bytes.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"fairmc/internal/engine"
)

// CodecVersion is the first byte of every encoding. Changing the format
// changes it, and with it the DPOR enumeration's options hash
// (search.OptionsHash), so another build's plans, ledgers and workers are
// refused by the hash checks.
const CodecVersion = 1

// ErrCodec is what a decoder returns, wrapped with the reason, for bytes
// that are not this build's encoding.
var ErrCodec = errors.New("por: not this build's DPOR payload encoding")

// The fewest bytes an element encodes to, for Codec.Len.
const (
	MinAlt  = 2
	MinMove = MinAlt + 3
	// A digest is a hash and a move without its Arg.
	MinDigest = 8 + MinMove - 1
)

// Codec runs one description of a payload's layout in either direction:
// encoding appends each value to the buffer, decoding reads it back into
// the value. The first failure sticks: later reads yield zero values, and
// the payload is refused.
type Codec struct {
	buf    []byte
	decode bool
	err    error
}

// Decoding reports whether the codec reads values rather than writes them.
func (c *Codec) Decoding() bool { return c.decode }

// Fail records why the payload is refused, unless a failure already was.
func (c *Codec) Fail(why string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCodec, why)
	}
	if c.decode {
		c.buf = nil
	}
}

func (c *Codec) uvarint(v uint64) uint64 {
	if !c.decode {
		c.buf = binary.AppendUvarint(c.buf, v)
		return v
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 || (n > 1 && c.buf[n-1] == 0) {
		c.Fail("a malformed varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

func (c *Codec) int64(p *int64) {
	u := c.uvarint(uint64(*p<<1) ^ uint64(*p>>63))
	*p = int64(u>>1) ^ -int64(u&1)
}

// Int codes a signed value.
func (c *Codec) Int(p *int) {
	v := int64(*p)
	c.int64(&v)
	if int64(int(v)) != v {
		c.Fail("an integer out of range")
	}
	*p = int(v)
}

// Uint codes a non-negative value.
func (c *Codec) Uint(p *int) {
	v := c.uvarint(uint64(*p))
	if v > math.MaxInt32 {
		c.Fail("a count out of range")
		v = 0
	}
	*p = int(v)
}

// Len codes the length n of a run of elements that encode to at least
// min bytes each, and returns it; a decoder refuses one the bytes left
// cannot hold.
func (c *Codec) Len(n, min int) int {
	c.Uint(&n)
	if c.decode && n > len(c.buf)/min {
		c.Fail(fmt.Sprintf("a length of %d past the end", n))
		return 0
	}
	return n
}

// Hash codes a digest's hash.
func (c *Codec) Hash(p *uint64) {
	switch {
	case !c.decode:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	case len(c.buf) < 8:
		c.Fail("a truncated hash")
		*p = 0
	default:
		*p, c.buf = binary.LittleEndian.Uint64(c.buf), c.buf[8:]
	}
}

// Alt codes an alternative.
func (c *Codec) Alt(p *engine.Alt) {
	c.Int((*int)(&p.Tid))
	c.Int(&p.Arg)
}

// Move codes a move.
func (c *Codec) Move(p *Move) {
	c.Int((*int)(&p.Tid))
	c.Int(&p.Arg)
	c.op(&p.Info)
}

// Digest codes a conformance digest.
func (c *Codec) Digest(p *engine.StepDigest) {
	c.Hash(&p.Hash)
	c.Int((*int)(&p.Tid))
	c.op(&p.Op)
}

func (c *Codec) op(p *engine.OpInfo) {
	n := c.Len(len(p.Kind), 1)
	if c.decode {
		p.Kind, c.buf = intern(c.buf[:n]), c.buf[n:]
	} else {
		c.buf = append(c.buf, p.Kind...)
	}
	obj := int64(p.Obj)
	c.int64(&obj)
	if p.Obj = engine.ObjID(obj); int64(p.Obj) != obj {
		c.Fail("an object id out of range")
	}
	c.int64(&p.Aux)
}

// Slice codes the length of *s and its elements with elem, which encode
// to at least min bytes each. A decoded slice is fresh, and nil when
// empty.
func Slice[T any](c *Codec, s *[]T, min int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), min)
	if c.decode {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Carve returns the next n elements of *arena, a slice allocated with
// the capacity for all of them: how a decoder gives many slices one
// backing array.
func Carve[T any](arena *[]T, n int) []T {
	lo := len(*arena)
	*arena = (*arena)[:lo+n]
	return (*arena)[lo : lo+n : lo+n]
}

// kinds interns decoded op kinds. They are a small fixed vocabulary, so a
// decoded kind is almost always one seen before and costs no allocation;
// the table is bounded, and a kind past the bound is allocated afresh.
var kinds = struct {
	sync.RWMutex
	m map[string]string
}{m: map[string]string{}}

const maxKinds = 256

func intern(b []byte) string {
	kinds.RLock()
	s, ok := kinds.m[string(b)]
	kinds.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	kinds.Lock()
	if len(kinds.m) < maxKinds {
		kinds.m[s] = s
	}
	kinds.Unlock()
	return s
}

// code is the unit's layout: Path, Sched and Digs, then Sleep — its
// length, the total number of moves in it, and per entry its length plus
// one (0 for a nil entry) and its moves.
func (u *Unit) code(c *Codec) {
	if c.decode {
		*u = Unit{}
	}
	Slice(c, &u.Path, 1, (*Codec).Int)
	Slice(c, &u.Sched, MinAlt, (*Codec).Alt)
	Slice(c, &u.Digs, MinDigest, (*Codec).Digest)
	n, total := c.Len(len(u.Sleep), 1), 0
	if n == 0 {
		return
	}
	for _, s := range u.Sleep {
		total += len(s)
	}
	total = c.Len(total, MinMove)
	var moves []Move
	if c.decode {
		u.Sleep, moves = make([][]Move, n), make([]Move, 0, total)
	}
	for i := range u.Sleep {
		k := len(u.Sleep[i]) + 1
		if u.Sleep[i] == nil {
			k = 0
		}
		if c.Uint(&k); c.decode && k > 0 {
			if k-1 > total-len(moves) {
				c.Fail("sleep entries past their total")
				return
			}
			u.Sleep[i] = Carve(&moves, k-1)
		}
		for j := range u.Sleep[i] {
			c.Move(&u.Sleep[i][j])
		}
	}
	if c.decode && len(moves) != total {
		c.Fail("sleep entries short of their total")
	}
}

// MarshalJSON carries the unit's encoding as one base64 string.
func (u Unit) MarshalJSON() ([]byte, error) { return MarshalJSON(u.code) }

// UnmarshalJSON decodes the base64 string MarshalJSON writes.
func (u *Unit) UnmarshalJSON(data []byte) error { return UnmarshalJSON(data, u.code) }

// scratch holds a payload's binary form on its way to or from its JSON
// string; values never keep it.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// MarshalJSON encodes a payload with layout, after the version byte, and
// returns the bytes as a JSON string of base64.
func MarshalJSON(layout func(*Codec)) ([]byte, error) {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	c := Codec{buf: append((*buf)[:0], CodecVersion)}
	layout(&c)
	if *buf = c.buf; c.err != nil {
		return nil, c.err
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(c.buf))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:], c.buf)
	return out, nil
}

// strict refuses base64 whose padding bits are not zero: two strings
// never decode to the same bytes.
var strict = base64.StdEncoding.Strict()

// UnmarshalJSON decodes data, the JSON string of base64 MarshalJSON
// writes, with layout; JSON null decodes nothing. A string with escapes,
// which MarshalJSON never writes, is refused.
func UnmarshalJSON(data []byte, layout func(*Codec)) error {
	if string(data) == "null" {
		return nil
	}
	n := len(data) - 2
	if n < 0 || data[0] != '"' || data[n+1] != '"' {
		return fmt.Errorf("%w: not a JSON string", ErrCodec)
	}
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	if c := base64.StdEncoding.DecodedLen(n); cap(*buf) < c {
		*buf = make([]byte, c)
	}
	b := (*buf)[:cap(*buf)]
	m, err := strict.Decode(b, data[1:n+1])
	switch {
	case err != nil:
		return fmt.Errorf("%w: %v", ErrCodec, err)
	case m == 0 || b[0] != CodecVersion:
		return fmt.Errorf("%w: not codec version %d", ErrCodec, CodecVersion)
	}
	c := Codec{buf: b[1:m], decode: true}
	if layout(&c); c.err == nil && len(c.buf) > 0 {
		c.Fail(fmt.Sprintf("%d trailing bytes", len(c.buf)))
	}
	return c.err
}
