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

// TestDiskGetIntoReturnsFileAsItIs: a record cut short behind the store's
// back comes back at the length its pack still holds, whether or not a
// buffer is passed, so the provider's length-and-digest check rejects it
// exactly as it would a whole-chunk read. (A record cannot come back
// longer: its length is the header's, not the file's.)
func TestDiskGetIntoReturnsFileAsItIs(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	short := Key{Blob: 1}
	if err := d.Put(short, want); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(packFiles(t, dir)[0], headerSize+100); err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]byte{nil, wire.GetBuf(len(want))} {
		got, err := d.GetInto(short, buf)
		if err != nil || !bytes.Equal(got, want[:100]) {
			t.Fatalf("truncated record: %d bytes, err %v; want its 100 bytes", len(got), err)
		}
	}
}
