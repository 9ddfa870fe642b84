package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	enc := NewEncoder(0)
	enc.PutU8(0xAB)
	enc.PutBool(true)
	enc.PutBool(false)
	enc.PutU16(0xBEEF)
	enc.PutU32(0xDEADBEEF)
	enc.PutU64(0x0123456789ABCDEF)
	enc.PutI64(-42)
	enc.PutF64(3.14159)
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
	if got := dec.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := dec.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := dec.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := dec.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := dec.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
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
	if n := dec.Count(7); n != 7 || dec.Err() != nil {
		t.Errorf("Count(7) of 7 = %d, %v", n, dec.Err())
	}
	if n := dec.Count(7); n != 0 || dec.Err() != ErrTooLarge {
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
	if n := e.PutMessage(&in); n != in.Size() {
		t.Fatalf("PutMessage wrote %d body bytes, Size() = %d", n, in.Size())
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

// property: any sequence of (u64, string, bytes, f64) encodes and decodes
// identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, s string, b []byte, x float64, flag bool) bool {
		enc := NewEncoder(0)
		enc.PutU64(a)
		enc.PutString(s)
		enc.PutBytes(b)
		enc.PutF64(x)
		enc.PutBool(flag)
		dec := NewDecoder(enc.Bytes())
		ga := dec.U64()
		gs := dec.String()
		gb := dec.Bytes()
		gx := dec.F64()
		gf := dec.Bool()
		if dec.Err() != nil || dec.Remaining() != 0 {
			return false
		}
		sameF := gx == x || (math.IsNaN(gx) && math.IsNaN(x))
		return ga == a && gs == s && bytes.Equal(gb, b) && sameF && gf == flag
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
