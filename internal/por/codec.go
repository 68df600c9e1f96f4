package por

// This file is the one binary encoding of everything that leaves a
// process in bulk: a Unit here, and through the Codec the layouts that
// sit beside their types in internal/search (a unit report's payload, a
// Report, a Shard, a Plan and the two checkpoint records) and
// internal/dist (a lease grant, a result post). docs/DPOR.md ("Wire
// format") describes the format. In short: a version byte opens every
// encoding, then varints (zigzag when signed), 8-byte hashes and
// length-prefixed strings and sections; a decoder checks every length
// against the bytes left before it allocates, allocates per slice rather
// than per element, and refuses trailing bytes and non-minimal varints,
// so what it accepts re-encodes to the same bytes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
const CodecVersion = 2

// ErrCodec is what a decoder returns, wrapped with the reason, for bytes
// that are not this build's encoding.
var ErrCodec = errors.New("por: not this build's encoding")

// ErrVersion is what Decode returns, wrapped, for bytes that do not open
// with this build's version byte: another build's encoding, which no
// retry can fix.
var ErrVersion = fmt.Errorf("%w: written by another version", ErrCodec)

// The fewest bytes an element encodes to, for Codec.Len.
const (
	MinAlt  = 2
	MinOp   = 3
	MinMove = MinAlt + MinOp
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

// Int64 codes a signed 64-bit value.
func (c *Codec) Int64(p *int64) {
	u := c.uvarint(uint64(*p<<1) ^ uint64(*p>>63))
	*p = int64(u>>1) ^ -int64(u&1)
}

// Int codes a signed value.
func (c *Codec) Int(p *int) {
	v := int64(*p)
	c.Int64(&v)
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
	c.Op(&p.Info)
}

// Digest codes a conformance digest.
func (c *Codec) Digest(p *engine.StepDigest) {
	c.Hash(&p.Hash)
	c.Int((*int)(&p.Tid))
	c.Op(&p.Op)
}

// Op codes a pending op's identity; a decoded kind is interned.
func (c *Codec) Op(p *engine.OpInfo) {
	n := c.Len(len(p.Kind), 1)
	if c.decode {
		p.Kind, c.buf = intern(c.buf[:n]), c.buf[n:]
	} else {
		c.buf = append(c.buf, p.Kind...)
	}
	obj := int64(p.Obj)
	c.Int64(&obj)
	if p.Obj = engine.ObjID(obj); int64(p.Obj) != obj {
		c.Fail("an object id out of range")
	}
	c.Int64(&p.Aux)
}

// Bool codes a flag as one byte, 0 or 1.
func (c *Codec) Bool(p *bool) {
	v := 0
	if *p {
		v = 1
	}
	if c.Uint(&v); v > 1 {
		c.Fail("a flag that is neither 0 nor 1")
	}
	*p = v == 1
}

// Bytes codes a length-prefixed run of bytes. A decoded run is a
// sub-slice of the input, nil when empty.
func (c *Codec) Bytes(p *[]byte) {
	n := c.Len(len(*p), 1)
	switch {
	case !c.decode:
		c.buf = append(c.buf, *p...)
	case n == 0:
		*p = nil
	default:
		*p, c.buf = c.buf[:n:n], c.buf[n:]
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	n := c.Len(len(*p), 1)
	if c.decode {
		*p, c.buf = string(c.buf[:n]), c.buf[n:]
	} else {
		c.buf = append(c.buf, *p...)
	}
}

// Section codes a length-prefixed run that layout describes. Decoding
// sets *raw to the run's bytes; encoding writes *raw as it is when it is
// set — bytes decoded earlier, spliced in rather than encoded again —
// and layout's encoding otherwise.
func (c *Codec) Section(raw *[]byte, layout func(*Codec)) {
	if c.decode {
		if c.Bytes(raw); c.err != nil {
			return
		}
		rest := c.buf
		c.buf = *raw
		layout(c)
		if c.end(); c.err == nil {
			c.buf = rest
		}
		return
	}
	if *raw != nil {
		c.Bytes(raw)
		return
	}
	// Encode in place, then move the run up past its length.
	start := len(c.buf)
	layout(c)
	n := len(c.buf) - start
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	c.buf = append(c.buf, pre[:k]...)
	copy(c.buf[start+k:], c.buf[start:start+n])
	copy(c.buf[start:], pre[:k])
}

// JSON codes *p as a length-prefixed section holding its JSON, empty
// for nil: how a cold or foreign value rides in a binary layout. A
// decoder accepts only the bytes the encoder writes for what they decode
// to.
func JSON[T any](c *Codec, p **T) {
	var data []byte
	if !c.decode && *p != nil {
		var err error
		if data, err = json.Marshal(*p); err != nil {
			c.Fail(err.Error())
		}
	}
	if c.Bytes(&data); !c.decode || data == nil {
		return
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		c.Fail("JSON that does not decode: " + err.Error())
		return
	}
	if again, err := json.Marshal(v); err != nil || !bytes.Equal(again, data) {
		c.Fail("JSON not as this build writes it")
		return
	}
	*p = v
}

// end refuses bytes a decoding left over.
func (c *Codec) end() {
	if c.decode && c.err == nil && len(c.buf) > 0 {
		c.Fail(fmt.Sprintf("%d trailing bytes", len(c.buf)))
	}
}

// Encode appends to buf the version byte and layout's encoding.
func Encode(buf []byte, layout func(*Codec)) ([]byte, error) {
	return run(Codec{buf: append(buf, CodecVersion)}, layout)
}

// Decode decodes data, which Encode wrote, with layout: ErrVersion for
// another version byte, ErrCodec for anything else that is not the
// layout's encoding, trailing bytes included.
func Decode(data []byte, layout func(*Codec)) error {
	if len(data) == 0 || data[0] != CodecVersion {
		return fmt.Errorf("%w (first byte %.1x, this build's %02x)", ErrVersion, data, CodecVersion)
	}
	_, err := run(Codec{buf: data[1:], decode: true}, layout)
	return err
}

// codecs recycles the codecs run hands layouts: a layout is a function
// value, so the codec it is handed escapes.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// run runs layout with a codec from the pool that starts as c0.
func run(c0 Codec, layout func(*Codec)) ([]byte, error) {
	c := codecs.Get().(*Codec)
	*c = c0
	layout(c)
	c.end()
	buf, err := c.buf, c.err
	*c = Codec{}
	codecs.Put(c)
	return buf, err
}

// Optional codes whether *p is set, then *p with code. A decoded value
// is fresh.
func Optional[T any](c *Codec, p **T, code func(*T, *Codec)) {
	has := *p != nil
	if c.Bool(&has); !has {
		*p = nil
		return
	}
	if c.decode {
		*p = new(T)
	}
	code(*p, c)
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

// Code is the unit's layout: Path, Sched and Digs, then Sleep — its
// length, the total number of moves in it, and per entry its length plus
// one (0 for a nil entry) and its moves.
func (u *Unit) Code(c *Codec) {
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
