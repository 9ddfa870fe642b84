package wire

import (
	"bytes"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes through every decode primitive. The
// invariants: no panic, no allocation explosion (length prefixes are
// bounded by MaxChunk), and once the first error latches every subsequent
// read returns a zero value.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // huge length prefixes
	e := NewEncoder(64)
	e.PutU64(42)
	e.PutString("hello")
	e.PutBytes([]byte{1, 2, 3})
	e.PutBool(true)
	f.Add(append([]byte(nil), e.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.U8()
		_ = d.Bool()
		_ = d.U32()
		_ = d.U64()
		_ = d.Bytes()
		_ = d.BytesCopy()
		_ = d.String()
		if d.Err() != nil {
			// Latched error: everything after must be zero.
			if v := d.U64(); v != 0 {
				t.Fatalf("read after latched error returned %d", v)
			}
			if b := d.Bytes(); b != nil {
				t.Fatalf("read after latched error returned %d bytes", len(b))
			}
		}
		if d.Remaining() < 0 {
			t.Fatalf("negative remaining %d", d.Remaining())
		}
	})
}

// nestMsg is a sized message that can carry another one as a field,
// encoded with PutMessage — the shape of an RPC body inside its frame.
type nestMsg struct {
	N     uint64
	B     []byte
	Inner *nestMsg
}

func (m *nestMsg) Size() int {
	n := 8 + 4 + len(m.B) + 1
	if m.Inner != nil {
		n += 4 + m.Inner.Size()
	}
	return n
}

func (m *nestMsg) Encode(e *Encoder) {
	e.PutU64(m.N)
	e.PutBytes(m.B)
	e.PutBool(m.Inner != nil)
	if m.Inner != nil {
		e.PutMessage(m.Inner)
	}
}

func (m *nestMsg) Decode(d *Decoder) {
	m.N = d.U64()
	m.B = d.Bytes()
	if d.Bool() {
		m.Inner = &nestMsg{}
		inner := NewDecoder(d.Bytes())
		m.Inner.Decode(inner)
		if inner.Err() != nil && d.err == nil {
			d.err = inner.Err()
		}
	}
}

func (m *nestMsg) equal(o *nestMsg) bool {
	if m == nil || o == nil {
		return m == o
	}
	return m.N == o.N && bytes.Equal(m.B, o.B) && m.Inner.equal(o.Inner)
}

// FuzzRoundTrip checks encode→decode identity for every primitive, and
// for a nested message written with PutMessage, which must produce the
// bytes PutBytes(Marshal(m)) does.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint32(0), "", []byte(nil), false)
	f.Add(^uint64(0), ^uint32(0), "metadata", []byte{0xDE, 0xAD}, true)

	f.Fuzz(func(t *testing.T, u64 uint64, u32 uint32, s string, b []byte, flag bool) {
		e := NewEncoder(0)
		e.PutU64(u64)
		e.PutU32(u32)
		e.PutString(s)
		e.PutBytes(b)
		e.PutBool(flag)
		nested := &nestMsg{N: u64, B: b, Inner: &nestMsg{N: uint64(u32), B: []byte(s)}}
		at := e.Len()
		e.PutMessage(nested)
		ref := NewEncoder(0)
		ref.PutBytes(Marshal(nested))
		if !bytes.Equal(e.Bytes()[at:], ref.Bytes()) {
			t.Fatalf("PutMessage bytes differ from PutBytes(Marshal(m))")
		}
		if got := len(ref.Bytes()) - 4; got != nested.Size() {
			t.Fatalf("Size() = %d, encoded %d", nested.Size(), got)
		}

		d := NewDecoder(e.Bytes())
		if got := d.U64(); got != u64 {
			t.Fatalf("u64 %d != %d", got, u64)
		}
		if got := d.U32(); got != u32 {
			t.Fatalf("u32 %d != %d", got, u32)
		}
		if got := d.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		if got := d.BytesCopy(); !bytes.Equal(got, b) {
			t.Fatalf("bytes %v != %v", got, b)
		}
		if got := d.Bool(); got != flag {
			t.Fatalf("bool %v != %v", got, flag)
		}
		var gotNested nestMsg
		if err := Unmarshal(d.Bytes(), &gotNested); err != nil || !gotNested.equal(nested) {
			t.Fatalf("nested message %+v != %+v (%v)", gotNested, nested, err)
		}
		if err := d.Err(); err != nil {
			t.Fatalf("round trip latched error: %v", err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d bytes left after full decode", d.Remaining())
		}
	})
}
