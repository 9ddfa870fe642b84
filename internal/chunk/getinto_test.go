package chunk

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/wire"
)

// TestGetIntoNeverKeepsBuf pins the GetInto ownership rule: the caller's
// buffer is its own again as soon as the call returns. Each engine reads a
// chunk into a pooled buffer, the buffer is scribbled over, and the next
// read must still return the chunk's bytes. A disk store reads into buf,
// so the result aliases it; an engine that kept buf would serve the
// scribble on the following read.
func TestGetIntoNeverKeepsBuf(t *testing.T) {
	want := bytes.Repeat([]byte("chunk bytes "), 1000)
	k := Key{Blob: 1, Version: 1, Index: 0}
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if err := s.Put(k, want); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				buf := wire.GetBuf(len(want))
				got, err := s.GetInto(k, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("read %d: wrong bytes", i)
				}
				for j := range buf[:cap(buf)] {
					buf[:cap(buf)][j] = 0xEE
				}
				wire.PutBuf(buf)
			}
			if got, _ := s.GetInto(k, nil); !bytes.Equal(got, want) {
				t.Fatalf("read without a buffer: wrong bytes")
			}
		})
	}
}

// TestDiskGetIntoReturnsFileAsItIs: a chunk file truncated or extended
// behind the store's back comes back at its real length, whether or not a
// buffer is passed, so the provider's length-and-digest check rejects it
// exactly as it would a whole-file read.
func TestDiskGetIntoReturnsFileAsItIs(t *testing.T) {
	d, err := NewDiskStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	short, long := Key{Blob: 1}, Key{Blob: 2}
	for _, k := range []Key{short, long} {
		if err := d.Put(k, want); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(d.path(short), 100); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(d.path(long), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, buf := range [][]byte{nil, wire.GetBuf(len(want))} {
		got, err := d.GetInto(short, buf)
		if err != nil || !bytes.Equal(got, want[:100]) {
			t.Fatalf("truncated file: %d bytes, err %v; want its 100 bytes", len(got), err)
		}
		got, err = d.GetInto(long, buf)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(want), "tail"...)) {
			t.Fatalf("extended file: %d bytes, err %v; want its %d bytes", len(got), err, len(want)+4)
		}
	}
}
