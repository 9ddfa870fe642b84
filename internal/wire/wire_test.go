package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutU8(0xAB)
	enc.PutBool(true)
	enc.PutBool(false)
	enc.PutU32(0xDEADBEEF)
	enc.PutU64(0x0123456789ABCDEF)
	enc.PutString("blobseer")
	enc.PutBytes([]byte{1, 2, 3})
	enc.PutBytes(nil)

	dec := NewDecoder(enc.Bytes())
	if got := dec.U8(); got != 0xAB {
		t.Errorf("U8 = %#x, want 0xAB", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Errorf("Bool sequence mismatch")
	}
	if got := dec.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := dec.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := dec.String(); got != "blobseer" {
		t.Errorf("String = %q", got)
	}
	if got := dec.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := dec.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if dec.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", dec.Remaining())
	}
}

func TestTruncation(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutU64(7)
	full := enc.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		_ = dec.U64()
		if dec.Err() == nil {
			t.Fatalf("cut=%d: expected truncation error", cut)
		}
	}
}

func TestTruncatedLengthPrefix(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutU32(100) // claims 100 bytes follow; none do
	dec := NewDecoder(enc.Bytes())
	if b := dec.Bytes(); b != nil {
		t.Errorf("Bytes = %v, want nil", b)
	}
	if dec.Err() != ErrTruncated {
		t.Errorf("Err = %v, want ErrTruncated", dec.Err())
	}
}

func TestOversizedLengthPrefix(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutU32(MaxChunk + 1)
	dec := NewDecoder(enc.Bytes())
	if b := dec.Bytes(); b != nil {
		t.Errorf("Bytes = %v, want nil", b)
	}
	if dec.Err() != ErrTooLarge {
		t.Errorf("Err = %v, want ErrTooLarge", dec.Err())
	}
	// An element count past its decoder's bound fails the same way.
	enc.Reset()
	enc.PutU32(7)
	enc.PutU32(8)
	dec = NewDecoder(enc.Bytes())
	if n := dec.count(7); n != 7 || dec.Err() != nil {
		t.Errorf("Count(7) of 7 = %d, %v", n, dec.Err())
	}
	if n := dec.count(7); n != 0 || dec.Err() != ErrTooLarge {
		t.Errorf("Count(7) of 8 = %d, %v; want 0, ErrTooLarge", n, dec.Err())
	}
}

func TestErrorLatches(t *testing.T) {
	dec := NewDecoder(nil)
	_ = dec.U64() // fails
	first := dec.Err()
	_ = dec.U32()
	_ = dec.String()
	if dec.Err() != first {
		t.Errorf("error did not latch: %v then %v", first, dec.Err())
	}
}

func TestBytesCopyIndependence(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutBytes([]byte("hello"))
	buf := append([]byte(nil), enc.Bytes()...)
	dec := NewDecoder(buf)
	got := dec.BytesCopy()
	buf[4] = 'X' // corrupt the backing buffer after decode
	if string(got) != "hello" {
		t.Errorf("BytesCopy aliased the input buffer: %q", got)
	}
}

// TestRawBody checks Raw travels verbatim: as a PutMessage body it frames
// exactly like PutBytes, and it decodes as everything left.
func TestRawBody(t *testing.T) {
	in := Raw("opaque")
	e := NewEncoder(0)
	if n := e.PutMessage(&in); n != in.Size(0) {
		t.Fatalf("PutMessage wrote %d body bytes, Size(0) = %d", n, in.Size(0))
	}
	want := NewEncoder(0)
	want.PutBytes([]byte("opaque"))
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("Raw framed as %q, want %q", e.Bytes(), want.Bytes())
	}
	var out Raw
	if err := Unmarshal(NewDecoder(e.Bytes()).Bytes(), &out); err != nil || string(out) != "opaque" {
		t.Fatalf("Raw decoded %q, %v", out, err)
	}
}

// TestBytesCapped checks a decoded slice cannot be appended into the
// fields that follow it in the shared buffer.
func TestBytesCapped(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte("ab"))
	e.PutU32(7)
	d := NewDecoder(e.Bytes())
	b := d.Bytes()
	_ = append(b, 'X', 'X', 'X', 'X')
	if got := d.U32(); got != 7 || d.Err() != nil {
		t.Fatalf("field after an appended-to slice = %d, %v", got, d.Err())
	}
}

// property: any sequence of (u64, string, bytes, bool) encodes and
// decodes identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, s string, b []byte, flag bool) bool {
		enc := NewEncoder(0)
		enc.PutU64(a)
		enc.PutString(s)
		enc.PutBytes(b)
		enc.PutBool(flag)
		dec := NewDecoder(enc.Bytes())
		ga := dec.U64()
		gs := dec.String()
		gb := dec.Bytes()
		gf := dec.Bool()
		if dec.Err() != nil || dec.Remaining() != 0 {
			return false
		}
		return ga == a && gs == s && bytes.Equal(gb, b) && gf == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// property: a Decoder over random garbage never panics and either errors or
// consumes bounded bytes.
func TestQuickNoPanicOnGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		dec := NewDecoder(garbage)
		_ = dec.U32()
		_ = dec.Bytes()
		_ = dec.String()
		_ = dec.U64()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	enc := NewEncoder(8192)
	for i := 0; i < b.N; i++ {
		enc.Reset()
		enc.PutU64(uint64(i))
		enc.PutString("chunk.put")
		enc.PutBytes(payload)
	}
}

func BenchmarkDecode(b *testing.B) {
	enc := NewEncoder(8192)
	enc.PutU64(99)
	enc.PutString("chunk.put")
	enc.PutBytes(make([]byte, 4096))
	buf := enc.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(buf)
		_ = dec.U64()
		_ = dec.String()
		_ = dec.Bytes()
		if dec.Err() != nil {
			b.Fatal(dec.Err())
		}
	}
}

// codecMsg exercises every Codec method through one field list.
type codecMsg struct {
	A    uint8
	B    bool
	C    uint32
	D    uint64
	S    string
	Raw  []byte
	Copy []byte
	IDs  []uint64
	Tags []string
}

func (m *codecMsg) Encode(e *Encoder) { m.Wire(e.Codec()) }
func (m *codecMsg) Decode(d *Decoder) { m.Wire(d.Codec()) }
func (m *codecMsg) Wire(c *Codec) {
	c.U8(&m.A)
	c.Bool(&m.B)
	c.U32(&m.C)
	c.U64(&m.D)
	c.String(&m.S)
	c.Bytes(&m.Raw)
	c.BytesCopy(&m.Copy)
	c.U64s(&m.IDs, 4)
	c.Strings(&m.Tags, MaxCount)
}

func TestCodecFieldList(t *testing.T) {
	in := codecMsg{A: 1, B: true, C: 3, D: 4, S: "five", Raw: []byte{6}, Copy: []byte{7, 8}, IDs: []uint64{9, 10}, Tags: []string{"", "x"}}
	body := Marshal(&in)
	var out codecMsg
	if err := Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	// Empty lists and an empty copied slice decode as nil.
	out = codecMsg{IDs: []uint64{1}, Copy: []byte{1}}
	if err := Unmarshal(Marshal(&codecMsg{}), &out); err != nil || out.IDs != nil || out.Tags != nil || out.Copy != nil {
		t.Fatalf("zero message decoded as %+v, %v", out, err)
	}
}

func TestCodecCountBounds(t *testing.T) {
	c := NewDecoder([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}).Codec()
	var ids []uint64
	c.U64s(&ids, 4) // five ids, bound four
	if c.d.Err() != ErrTooLarge || ids != nil {
		t.Fatalf("count past its bound: %v, %v", ids, c.d.Err())
	}
	// A count within its bound but past the bytes left fails the same
	// way, before the list is allocated.
	c = NewDecoder([]byte{3, 0, 0, 0, 1, 2}).Codec()
	var tags []string
	c.Strings(&tags, MaxCount)
	if c.d.Err() != ErrTooLarge || tags != nil {
		t.Fatalf("count past the bytes left: %v, %v", tags, c.d.Err())
	}
}

// TestReferencedFields: a Bytes field at or above the ReferenceFrom size
// is referenced, not copied (a later change to the caller's slice shows
// in the segments), smaller ones and BytesCopy fields are copied, and
// Reset drops every reference.
func TestReferencedFields(t *testing.T) {
	big, small := bytes.Repeat([]byte{1}, 8), []byte{2, 2}
	e := NewEncoder(0)
	e.ReferenceFrom(8)
	c := e.Codec()
	c.U8(new(uint8))
	c.Bytes(&big)
	c.Bytes(&small)
	c.BytesCopy(&big)
	segs := e.Segments()
	if len(segs) != 3 || &segs[1][0] != &big[0] {
		t.Fatalf("segments %v: want the big field referenced between two runs", segs)
	}
	if e.Len() != 1+4+8+4+2+4+8 {
		t.Fatalf("Len = %d", e.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes of an encoder holding a reference did not panic")
			}
		}()
		e.Bytes()
	}()
	e.Reset()
	if e.Len() != 0 || len(e.Segments()) != 1 || len(e.Bytes()) != 0 {
		t.Fatalf("after Reset: Len %d, %d segments", e.Len(), len(e.Segments()))
	}
}

// TestLandedField: a body decoded as it is read (UnmarshalFrom) reads
// each Land field that fits its buffer straight into it, and the field
// aliases that buffer; a field too long for its buffer, and every other
// field, decodes from UnmarshalFrom's own buffer. A decode that fails
// still reads the whole body, and a read that fails is the error.
func TestLandedField(t *testing.T) {
	e := NewEncoder(0)
	e.PutU8(9)
	e.PutBytes([]byte("payload"))
	e.PutBytes([]byte("second"))
	e.PutU64(77)
	body := e.Bytes()
	padded := append(append([]byte{}, body...), make([]byte, 8)...)
	// reader hands the body (and 8 bytes more) over in pieces, counting
	// what it handed over, and fails a read past fail bytes.
	reader := func(fail int) (func([]byte) error, *int) {
		read := 0
		return func(p []byte) error {
			if read+len(p) > fail {
				return errors.New("connection reset")
			}
			read += copy(p, padded[read:])
			return nil
		}, &read
	}
	var tag uint8
	var first, second []byte
	var tail uint64
	dst := [2][]byte{make([]byte, 16), make([]byte, 16)}
	m := &fieldsMsg{fields: func(c *Codec) {
		c.U8(&tag)
		c.Land(&first, dst[0])
		c.Land(&second, dst[1])
		c.U64(&tail)
	}}
	read, n := reader(len(body))
	rest, err := UnmarshalFrom(read, len(body), m)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 9 || tail != 77 || string(first) != "payload" || string(second) != "second" {
		t.Fatalf("decoded tag %d, %q, %q, tail %d", tag, first, second, tail)
	}
	if &first[0] != &dst[0][0] || &second[0] != &dst[1][0] || len(rest) != 1+4+4+8 || *n != len(body) {
		t.Fatalf("fields not landed: %d bytes kept of %d read", len(rest), *n)
	}

	dst[1] = dst[1][:3] // too short for "second"
	read, _ = reader(len(body))
	if _, err := UnmarshalFrom(read, len(body), m); err != nil || string(second) != "second" || &second[0] == &dst[1][0] {
		t.Fatalf("a field too long for its buffer: %q, %v", second, err)
	}

	read, n = reader(len(body) + 8)
	if _, err := UnmarshalFrom(read, len(body)+8, m); err != nil || *n != len(body)+8 {
		t.Fatalf("trailing bytes: %v, %d of %d read", err, *n, len(body)+8)
	}
	short := &fieldsMsg{fields: func(c *Codec) {
		for range 4 {
			c.U64(&tail) // 32 bytes of a 30-byte body
		}
	}}
	read, n = reader(len(body))
	if _, err := UnmarshalFrom(read, len(body), short); !errors.Is(err, ErrTruncated) || *n != len(body) {
		t.Fatalf("a body too short for its message: %v, %d of %d read", err, *n, len(body))
	}
	read, _ = reader(7)
	if _, err := UnmarshalFrom(read, len(body), m); err == nil || err.Error() != "connection reset" {
		t.Fatalf("a read that fails: err = %v", err)
	}
}

// fieldsMsg is a Message whose field list is a closure.
type fieldsMsg struct{ fields func(*Codec) }

func (m *fieldsMsg) Encode(e *Encoder) { m.fields(e.Codec()) }
func (m *fieldsMsg) Decode(d *Decoder) { m.fields(d.Codec()) }

// payloadMsg is one Bytes field, sized.
type payloadMsg struct{ data []byte }

func (m *payloadMsg) Encode(e *Encoder)    { e.Codec().Bytes(&m.data) }
func (m *payloadMsg) Decode(d *Decoder)    { d.Codec().Bytes(&m.data) }
func (m *payloadMsg) Size(refFrom int) int { return 4 + Copied(len(m.data), refFrom) }

// TestPutMessageGrowsByWhatItCopies: PutMessage grows the buffer once,
// by the copied part of a Sizer body — all of a payload below the
// referencing size, none of one at or above it — not by doubling its way
// up (which would overshoot a 100 000-byte body by a third).
func TestPutMessageGrowsByWhatItCopies(t *testing.T) {
	const n = 100000
	for _, tc := range []struct{ refFrom, want int }{
		{0, 4 + 4 + n + trailerRoom},
		{n + 1, 4 + 4 + n + trailerRoom},
		{n, 4 + 4 + trailerRoom},
	} {
		e := NewEncoder(0)
		e.ReferenceFrom(tc.refFrom)
		if got := e.PutMessage(&payloadMsg{data: make([]byte, n)}); got != 4+n {
			t.Fatalf("body of %d bytes, want %d", got, 4+n)
		}
		// The allocator rounds a request up to its size class or page.
		if c := cap(e.buf); c < tc.want || c > tc.want+8192 {
			t.Errorf("referencing from %d: buffer grew to %d, want about %d", tc.refFrom, c, tc.want)
		}
	}
}
