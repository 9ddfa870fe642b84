// Package wire implements the binary encoding used by every BlobSeer
// message. It is a small, allocation-conscious, hand-rolled codec:
// fixed-width little-endian integers plus length-prefixed byte strings.
// Nothing on the hot path goes through reflection.
//
// An Encoder appends to an internal buffer; a Decoder consumes a buffer and
// latches the first error so call sites can decode a whole message and check
// Err() once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated is reported when a Decoder runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is reported when a length prefix exceeds MaxChunk, or an
// element count exceeds the bound its decoder names (Decoder.Count).
var ErrTooLarge = errors.New("wire: length prefix too large")

// MaxChunk bounds any single length-prefixed field. It exists so a corrupt
// or malicious length prefix cannot make a Decoder allocate unbounded
// memory.
const MaxChunk = 1 << 30

// Encoder serializes values into a growing byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
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

// PutU16 appends a little-endian uint16.
func (e *Encoder) PutU16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// PutU32 appends a little-endian uint32.
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutU64 appends a little-endian uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutI64 appends a little-endian int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutF64 appends an IEEE-754 float64.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

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
	buf []byte
	off int
	err error
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

// U16 decodes a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

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

// Count decodes a u32 element count bounded by max. A larger count is
// corruption: it latches ErrTooLarge and returns 0, so the decode fails
// instead of reading on with a clamped count.
func (d *Decoder) Count(max uint32) uint32 {
	n := d.U32()
	if n > max {
		d.err = ErrTooLarge
		return 0
	}
	return n
}

// I64 decodes a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 decodes an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

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
