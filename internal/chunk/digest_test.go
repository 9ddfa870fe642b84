package chunk

import (
	"bytes"
	"testing"
)

func TestDigestVerify(t *testing.T) {
	data := []byte("the quick brown fox")
	d := DigestOf(data)
	if d.Algo != DigestCRC32C || d.IsZero() {
		t.Fatalf("DigestOf algo = %d", d.Algo)
	}
	if !d.Verify(data) {
		t.Error("clean data failed verification")
	}
	bad := append([]byte(nil), data...)
	bad[3] ^= 0xFF
	if d.Verify(bad) {
		t.Error("corrupt data passed verification")
	}
	if !(Digest{}).Verify(bad) {
		t.Error("zero digest must verify anything (legacy chunk)")
	}
	if !(Digest{Algo: 99, Sum: 1}).Verify(bad) {
		t.Error("unknown algorithm must not reject data it cannot check")
	}
}

// TestCorruptHooks drives the fault-injection hook on every engine: after
// Corrupt, a read must return different bytes that fail the digest.
func TestCorruptHooks(t *testing.T) {
	k := Key{Blob: 1, Version: 2, Index: 3}
	data := bytes.Repeat([]byte("abcdefgh"), 512)
	d := DigestOf(data)

	disk := func() Store {
		s, err := NewDiskStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	engines := map[string]Store{
		"mem":    NewMemStore(),
		"disk":   disk(),
		"cached": NewCachedStore(disk(), 1<<20),
		"tamper": NewTamperStore(NewMemStore()),
	}
	for name, s := range engines {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put(k, data); err != nil {
				t.Fatal(err)
			}
			// Warm any cache so Corrupt must also defeat it.
			if _, err := s.GetInto(k, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.(Corruptor).Corrupt(k, 100); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetInto(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, data) {
				t.Fatal("read returned clean bytes after Corrupt")
			}
			if d.Verify(got) {
				t.Fatal("digest verified corrupt bytes")
			}
			r, err := s.GetRange(k, 96, 16)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(r, data[96:112]) {
				t.Fatal("ranged read returned clean bytes after Corrupt")
			}
			// Out-of-range and missing-key corruption must error.
			if err := s.(Corruptor).Corrupt(Key{Blob: 9}, 0); err == nil {
				t.Error("corrupting a missing key did not error")
			}
		})
	}

	// Offset past the end errors on engines that track sizes.
	m := NewMemStore()
	m.Put(k, data)
	if err := m.Corrupt(k, uint64(len(data))); err == nil {
		t.Error("corrupting past the end did not error")
	}
}
