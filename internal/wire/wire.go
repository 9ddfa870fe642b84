// Package wire implements the binary encoding used by every BlobSeer
// message. It is a small, allocation-conscious, hand-rolled codec:
// fixed-width little-endian integers plus length-prefixed byte strings.
// Nothing on the hot path goes through reflection.
//
// An Encoder appends to an internal buffer; a Decoder consumes a buffer and
// latches the first error so call sites can decode a whole message and check
// Err() once at the end.
//
// # Messages
//
// Every message spells its format once, as a field list:
//
//   - One Wire(c *Codec) method per message lists its fields. Its Encode
//     and Decode are one-line adapters, r.Wire(e.Codec()) and
//     r.Wire(d.Codec()), and a field group that several messages share
//     (a chunk key, a digest, a tree-node key) has a Wire method of its
//     own, used by all of them.
//   - Field order is the format. Reordering, retyping, adding or removing
//     a field changes the bytes on the wire and on disk, and bodies
//     written before the change no longer decode. Frozen-byte tests pin
//     every message and every on-disk format.
//   - Every list goes through Count or Slice with a named bound: the
//     protocol's own limit where it has one (meta.MaxReplicas,
//     pmanager.MaxAllocateChunks), MaxCount otherwise. Count also holds a
//     decoded length to the bytes left in the body, so a corrupt count
//     fails the decode before anything is allocated from it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated is reported when a Decoder runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is reported when a length prefix exceeds MaxChunk, or an
// element count (Codec.Count) exceeds the bound its decoder names or the
// bytes left in the body.
var ErrTooLarge = errors.New("wire: length prefix too large")

// MaxChunk bounds any single length-prefixed field. It exists so a corrupt
// or malicious length prefix cannot make a Decoder allocate unbounded
// memory.
const MaxChunk = 1 << 30

// Encoder serializes values into a growing byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf   []byte
	codec Codec
}

// NewEncoder returns an Encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded message. The slice aliases the Encoder's
// internal buffer and is valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutU8 appends a single byte.
func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}

// PutU32 appends a little-endian uint32.
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutU64 appends a little-endian uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutBytes appends a u32 length prefix followed by the raw bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a u32 length prefix followed by the string bytes.
func (e *Encoder) PutString(s string) {
	e.PutU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutMessage appends m as a u32 length prefix followed by its encoding —
// byte for byte what PutBytes(Marshal(m)) writes, without the intermediate
// buffer: the body is encoded in place and the prefix patched afterwards.
// A Sizer message grows the buffer once up front. It returns the body
// length.
func (e *Encoder) PutMessage(m Message) int {
	if s, ok := m.(Sizer); ok {
		// Headroom past the body lets a short trailer (the rpc layer's
		// trace context) follow without reallocating a large frame.
		e.buf = slices.Grow(e.buf, 4+s.Size()+trailerRoom)
	}
	at := len(e.buf)
	e.PutU32(0)
	m.Encode(e)
	n := len(e.buf) - at - 4
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(n))
	return n
}

// trailerRoom is the spare capacity PutMessage leaves after a sized body.
const trailerRoom = 32

// Decoder consumes a byte buffer produced by an Encoder. The first decode
// failure latches into err; subsequent reads return zero values.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	codec Codec
}

// NewDecoder returns a Decoder over buf. The Decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered while decoding, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 decodes a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a bool encoded as one byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 decodes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count decodes a u32 element count bounded by max. A larger count is
// corruption: it latches ErrTooLarge and returns 0, so the decode fails
// instead of reading on with a clamped count.
func (d *Decoder) count(max uint32) uint32 {
	n := d.U32()
	if n > max {
		d.err = ErrTooLarge
		return 0
	}
	return n
}

// Bytes decodes a u32-length-prefixed byte slice. The returned slice
// aliases the Decoder's buffer, so it is only as stable as that buffer;
// its capacity ends at its length, so an append never overwrites the
// fields that follow it.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxChunk {
		d.err = ErrTooLarge
		return nil
	}
	b := d.take(int(n))
	return b[:len(b):len(b)]
}

// BytesCopy decodes a u32-length-prefixed byte slice into fresh memory.
func (d *Decoder) BytesCopy() []byte {
	b := d.Bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String decodes a u32-length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes()
	if b == nil {
		return ""
	}
	return string(b)
}

// Message is implemented by every RPC payload type in the system.
type Message interface {
	// Encode appends the message body to enc.
	Encode(enc *Encoder)
	// Decode consumes the message body from dec.
	Decode(dec *Decoder)
}

// Codec runs one field list in either direction: it wraps an Encoder,
// where each method appends the value its argument points to, or a
// Decoder, where each method reads into it. A message's Wire method is
// that list, and its Encode and Decode hand it e.Codec() or d.Codec().
type Codec struct {
	e *Encoder // nil when decoding
	d *Decoder // nil when encoding
}

// Codec returns a Codec that appends to e. It lives in e, so handing it
// to field lists that pass it on costs no allocation.
func (e *Encoder) Codec() *Codec {
	e.codec = Codec{e: e}
	return &e.codec
}

// Codec returns a Codec that reads from d. It lives in d, like
// Encoder.Codec's.
func (d *Decoder) Codec() *Codec {
	d.codec = Codec{d: d}
	return &d.codec
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if c.d != nil {
		*v = c.d.U8()
	} else {
		c.e.PutU8(*v)
	}
}

// Bool codes a bool as one byte.
func (c *Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.PutBool(*v)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.d != nil {
		*v = c.d.U32()
	} else {
		c.e.PutU32(*v)
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.d != nil {
		*v = c.d.U64()
	} else {
		c.e.PutU64(*v)
	}
}

// String codes a u32-length-prefixed string.
func (c *Codec) String(v *string) {
	if c.d != nil {
		*v = c.d.String()
	} else {
		c.e.PutString(*v)
	}
}

// Bytes codes a u32-length-prefixed byte slice. A decoded slice aliases
// the Decoder's buffer (see Decoder.Bytes).
func (c *Codec) Bytes(v *[]byte) {
	if c.d != nil {
		*v = c.d.Bytes()
	} else {
		c.e.PutBytes(*v)
	}
}

// BytesCopy codes a u32-length-prefixed byte slice, decoding it into
// fresh memory; an empty one decodes as nil.
func (c *Codec) BytesCopy(v *[]byte) {
	if c.d == nil {
		c.e.PutBytes(*v)
	} else if *v = c.d.BytesCopy(); len(*v) == 0 {
		*v = nil
	}
}

// Count codes a list length as a u32. A decoded count above max, or above
// the bytes left in the body (every element takes at least one), fails
// the decode with ErrTooLarge and reads as 0, so no list is allocated
// from a corrupt count.
func (c *Codec) Count(n *int, max int) {
	if c.d == nil {
		c.e.PutU32(uint32(*n))
		return
	}
	*n = int(c.d.count(uint32(max)))
	if *n > c.d.Remaining() {
		c.d.err, *n = ErrTooLarge, 0
	}
}

// ok reports whether decoding has not failed (always, when encoding).
func (c *Codec) ok() bool { return c.d == nil || c.d.err == nil }

// Strings codes a list of strings bounded by max.
func (c *Codec) Strings(s *[]string, max int) {
	Slice(c, s, max, func(v *string, c *Codec) { c.String(v) })
}

// U64s codes a list of uint64s bounded by max.
func (c *Codec) U64s(s *[]uint64, max int) {
	Slice(c, s, max, func(v *uint64, c *Codec) { c.U64(v) })
}

// Slice codes a list: its Count, bounded by max, then every element
// through elem (usually a method expression such as (*T).Wire).
func Slice[T any](c *Codec, s *[]T, max int, elem func(*T, *Codec)) {
	n := len(*s)
	c.Count(&n, max)
	Make(c, s, n)
	for i := 0; i < n && c.ok(); i++ {
		elem(&(*s)[i], c)
	}
}

// Make sizes a list whose count the caller has coded: when decoding it
// replaces *s with n zero elements (nil for none); when encoding it does
// nothing. Lists that share one count, kept as parallel slices, use it.
func Make[T any](c *Codec, s *[]T, n int) {
	if c.d == nil {
		return
	}
	*s = nil
	if n > 0 {
		*s = make([]T, n)
	}
}

// MaxCount bounds a list whose only limit is the body it arrives in:
// Count still holds it to the bytes left.
const MaxCount = MaxChunk

// Sizer is an optional Message refinement: Size reports the exact encoded
// length, so Marshal and PutMessage allocate once instead of doubling
// their way up to a chunk-sized body. Messages that carry chunk payloads
// implement it.
type Sizer interface {
	Size() int
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte {
	n := 64
	if s, ok := m.(Sizer); ok {
		n = s.Size()
	}
	enc := NewEncoder(n)
	m.Encode(enc)
	return enc.Bytes()
}

// Raw is an opaque message body: it encodes as its bytes verbatim and
// decodes as everything left in the body, aliasing the decoder's buffer.
// It carries pre-encoded or free-form payloads through typed call paths.
type Raw []byte

// Encode implements Message.
func (r *Raw) Encode(e *Encoder) { e.buf = append(e.buf, *r...) }

// Decode implements Message.
func (r *Raw) Decode(d *Decoder) { *r = d.take(d.Remaining()) }

// Size implements Sizer.
func (r *Raw) Size() int { return len(*r) }

// Unmarshal decodes buf into m, returning a descriptive error on failure.
func Unmarshal(buf []byte, m Message) error {
	dec := NewDecoder(buf)
	m.Decode(dec)
	if err := dec.Err(); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", m, err)
	}
	return nil
}
