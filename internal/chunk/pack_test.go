package chunk

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// packFiles lists dir's pack files in id order.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "*"+packSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(packs)
	return packs
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func openDisk(t *testing.T, dir string) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t *testing.T, s Store, k Key, data []byte) {
	t.Helper()
	if err := s.Put(k, data); err != nil {
		t.Fatal(err)
	}
}

// payload is n bytes that differ from chunk to chunk and contain no zero
// byte, so punched zeros never pass for them.
func payload(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + (seed*31+i)%251)
	}
	return b
}

// Frozen pack format: the bytes of a pack holding two records, before and
// after the first one is deleted. A restarted provider must keep indexing
// packs written by every earlier build.
const (
	frozenPackLive = "030000000000000002000000000000000100000000000000040000007d26cf307061636b030000000000000002000000000000000200000000000000040000002d5a5d6372656321"
	frozenPackDead = "030000000000000002000000000000000100000000000000040000807d26cf307061636b030000000000000002000000000000000200000000000000040000002d5a5d6372656321"
)

// TestPackFormatFrozen pins the record layout: key (blob, version, index),
// the length word whose top bit is the dead flag, the CRC-32C of the
// header, then the payload. The dead record differs from the live one in
// that bit alone.
func TestPackFormatFrozen(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	defer s.Close()
	a, b := Key{Blob: 3, Version: 2, Index: 1}, Key{Blob: 3, Version: 2, Index: 2}
	mustPut(t, s, a, []byte("pack"))
	mustPut(t, s, b, []byte("rec!"))
	packs := packFiles(t, dir)
	if len(packs) != 1 {
		t.Fatalf("packs = %v, want one", packs)
	}
	read := func() string {
		raw, err := os.ReadFile(packs[0])
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw)
	}
	if got := read(); got != frozenPackLive {
		t.Errorf("live records\n got %s\nwant %s", got, frozenPackLive)
	}
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != frozenPackDead {
		t.Errorf("after deleting the first\n got %s\nwant %s", got, frozenPackDead)
	}

	// The golden bytes index the same way in a fresh directory.
	for _, tc := range []struct {
		hex  string
		want []Key
	}{{frozenPackLive, []Key{a, b}}, {frozenPackDead, []Key{b}}} {
		dir := t.TempDir()
		raw, _ := hex.DecodeString(tc.hex)
		if err := os.WriteFile(filepath.Join(dir, packName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		re := openDisk(t, dir)
		if got := re.Keys(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("keys of the frozen pack = %v, want %v", got, tc.want)
		}
		if got, err := re.Get(b); err != nil || string(got) != "rec!" {
			t.Errorf("frozen record = %q, %v", got, err)
		}
		re.Close()
	}
}

// TestPackIndexesShortRecord: a record whose payload an outside hand cut
// short keeps its key, at the length the pack still holds, so the
// provider's boot check sees the mismatch and quarantines it.
func TestPackIndexesShortRecord(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	a, b := Key{Blob: 1}, Key{Blob: 2}
	wantA, wantB := payload(1, 4000), payload(2, 4000)
	mustPut(t, s, a, wantA)
	mustPut(t, s, b, wantB)
	s.Close()
	pack := packFiles(t, dir)[0]
	if err := os.Truncate(pack, fileSize(t, pack)-3000); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir)
	defer re.Close()
	if n, ok := re.Size(b); !ok || n != 1000 {
		t.Fatalf("Size of the cut record = %d,%v, want 1000", n, ok)
	}
	if got, err := re.Get(b); err != nil || !bytes.Equal(got, wantB[:1000]) {
		t.Fatalf("cut record: %d bytes, %v; want its first 1000", len(got), err)
	}
	if got, err := re.GetRange(b, 900, 500); err != nil || !bytes.Equal(got, wantB[900:1000]) {
		t.Fatalf("range over the cut: %d bytes, %v; want 100", len(got), err)
	}
	if got, err := re.Get(a); err != nil || !bytes.Equal(got, wantA) {
		t.Fatalf("whole record before it: %d bytes, %v", len(got), err)
	}
	if re.Bytes() != 5000 {
		t.Fatalf("Bytes = %d, want 5000", re.Bytes())
	}
}

// TestPackDeletesStayDeleted: a deleted record stays deleted across a
// reopen, its payload's whole blocks are punched out, and a pack whose
// last live record is deleted is removed, at once when no Put writes to it
// and at the next open otherwise.
func TestPackDeletesStayDeleted(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	a, b, c := Key{Blob: 1}, Key{Blob: 2}, Key{Blob: 3}
	mustPut(t, s, a, payload(1, 64<<10))
	mustPut(t, s, b, payload(2, 64<<10))
	before := allocated(t, packFiles(t, dir)[0])
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if after := allocated(t, packFiles(t, dir)[0]); runtime.GOOS == "linux" && after > before-60<<10 {
		t.Errorf("allocated %d bytes after deleting 64 KiB of %d, want the payload's whole blocks punched out", after, before)
	}
	s.Close()

	re := openDisk(t, dir)
	if re.Has(a) || !re.Has(b) || re.Len() != 1 || re.Bytes() != 64<<10 {
		t.Fatalf("after reopen: Has(a)=%v Has(b)=%v Len %d Bytes %d", re.Has(a), re.Has(b), re.Len(), re.Bytes())
	}
	first := packFiles(t, dir)[0]
	mustPut(t, re, c, []byte("in the second pack"))
	// b is the first pack's last live record, and no Put writes to that
	// pack any more.
	if err := re.Delete(b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(first); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fully dead pack %s: %v, want it removed", first, err)
	}
	// c's pack is still being written: it stays until the next open.
	if err := re.Delete(c); err != nil {
		t.Fatal(err)
	}
	if n := len(packFiles(t, dir)); n != 1 {
		t.Fatalf("%d packs with the active pack dead, want it kept while open", n)
	}
	re.Close()
	re = openDisk(t, dir)
	defer re.Close()
	if n := len(packFiles(t, dir)); n != 0 || re.Len() != 0 {
		t.Fatalf("reopened: %d packs, Len %d, want none", n, re.Len())
	}
}

// allocated is the file's allocated size, what du reports.
func allocated(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Sys().(*syscall.Stat_t).Blocks * 512
}

// TestPackReadRacingDelete: a read that races a Delete returns the whole
// chunk or ErrNotFound, never the zeros the Delete punches, including when
// the Delete removes the pack under it. Readers keep reading each chunk
// until it is gone; a 1 MiB payload keeps each pread long enough for the
// punch to land inside it.
func TestPackReadRacingDelete(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	const n, size = 16, 1 << 20
	for i := 0; i < n; i++ {
		mustPut(t, s, Key{Index: uint64(i)}, payload(i, size))
	}
	// Reopen so the pack is no longer written: the last Delete removes it.
	s.Close()
	s = openDisk(t, dir)
	defer s.Close()
	for i := 0; i < n; i++ {
		k, want := Key{Index: uint64(i)}, payload(i, size)
		var wg sync.WaitGroup
		started := make(chan struct{}, 4)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(ranged bool) {
				defer wg.Done()
				buf := make([]byte, size)
				for j := 0; ; j++ {
					if j == 1 {
						started <- struct{}{}
					}
					var got []byte
					var err error
					if ranged {
						got, err = s.GetRange(k, 4096, size/2)
					} else {
						got, err = s.GetInto(k, buf)
					}
					if errors.Is(err, ErrNotFound) {
						return
					}
					if err != nil || (ranged && !bytes.Equal(got, want[4096:4096+size/2])) || (!ranged && !bytes.Equal(got, want)) {
						t.Errorf("%s: read %d racing Delete: %d bytes, %v, want the whole chunk or ErrNotFound", k, j, len(got), err)
						return
					}
				}
			}(r%2 == 1)
		}
		for r := 0; r < 4; r++ {
			<-started
		}
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	if n := len(packFiles(t, dir)); n != 0 {
		t.Fatalf("%d packs left after deleting every record", n)
	}
}

// TestPackConcurrentPutGetDelete: writers, readers and deleters on one
// store leave an index that matches what each did, before and after a
// reopen.
func TestPackConcurrentPutGetDelete(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	const workers, per = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := Key{Blob: uint64(w), Index: uint64(i)}
				data := payload(w*per+i, 1000+i*97)
				if err := s.Put(k, data); err != nil {
					t.Errorf("Put %s: %v", k, err)
					return
				}
				if got, err := s.GetInto(k, nil); err != nil || !bytes.Equal(got, data) {
					t.Errorf("Get %s: %d bytes, %v", k, len(got), err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(k); err != nil {
						t.Errorf("Delete %s: %v", k, err)
						return
					}
				}
				// A neighbour's chunk, put or deleted concurrently: whole
				// or absent.
				o := Key{Blob: uint64((w + 1) % workers), Index: uint64(i)}
				if got, err := s.GetInto(o, nil); err == nil && !bytes.Equal(got, payload(int(o.Blob)*per+i, 1000+i*97)) {
					t.Errorf("Get %s: wrong bytes", o)
				} else if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get %s: %v", o, err)
				}
			}
		}(w)
	}
	wg.Wait()
	check := func(s *DiskStore) {
		t.Helper()
		var total int64
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				k := Key{Blob: uint64(w), Index: uint64(i)}
				got, err := s.Get(k)
				if i%3 == 0 {
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("deleted %s: %v", k, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, payload(w*per+i, 1000+i*97)) {
					t.Errorf("kept %s: %d bytes, %v", k, len(got), err)
				}
				total += int64(1000 + i*97)
			}
		}
		if want := workers * per * 2 / 3; s.Len() != want || len(s.Keys()) != want || s.Bytes() != total {
			t.Errorf("Len %d, Keys %d, Bytes %d; want %d, %d, %d", s.Len(), len(s.Keys()), s.Bytes(), want, want, total)
		}
	}
	check(s)
	s.Close()
	re := openDisk(t, dir)
	defer re.Close()
	check(re)
}

// TestPackReopenAppendsToNewPack: a Put after a reopen goes to a new pack
// and leaves every byte of the old one as it was.
func TestPackReopenAppendsToNewPack(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	mustPut(t, s, Key{Blob: 1}, []byte("first open"))
	s.Close()
	old := packFiles(t, dir)
	if len(old) != 1 {
		t.Fatalf("packs after the first open: %v", old)
	}
	before, err := os.ReadFile(old[0])
	if err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir)
	if n := len(packFiles(t, dir)); n != 1 {
		t.Fatalf("reopening made a pack before any Put: %d packs", n)
	}
	mustPut(t, re, Key{Blob: 2}, []byte("second open"))
	re.Close()
	packs := packFiles(t, dir)
	if len(packs) != 2 || packs[0] != old[0] {
		t.Fatalf("packs after the second open = %v, want %s and a new one", packs, old[0])
	}
	if after, _ := os.ReadFile(old[0]); !bytes.Equal(after, before) {
		t.Fatalf("old pack changed by a Put after reopen")
	}
	re = openDisk(t, dir)
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("Len = %d after the second reopen", re.Len())
	}
}

// TestPackRollsOver: Put starts a new pack once the active one would pass
// packLimit, and the records on both sides of the boundary read back.
func TestPackRollsOver(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir)
	const size = 1 << 20
	n := packLimit/(size+headerSize) + 1
	for i := 0; i < n; i++ {
		mustPut(t, s, Key{Index: uint64(i)}, payload(i, size))
	}
	packs := packFiles(t, dir)
	if len(packs) != 2 {
		t.Fatalf("%d packs after %d MiB, want 2", len(packs), n)
	}
	if first := fileSize(t, packs[0]); first > packLimit {
		t.Fatalf("first pack is %d bytes, over the %d limit", first, packLimit)
	}
	s.Close()
	re := openDisk(t, dir)
	defer re.Close()
	for _, i := range []int{0, n - 2, n - 1} {
		if got, err := re.Get(Key{Index: uint64(i)}); err != nil || !bytes.Equal(got, payload(i, size)) {
			t.Fatalf("record %d: %d bytes, %v", i, len(got), err)
		}
	}
}

// TestDiskStoreRefusesPerChunkFiles: a directory of the one-file-per-chunk
// format is refused with an error naming the format change, not opened as
// an empty store.
func TestDiskStoreRefusesPerChunkFiles(t *testing.T) {
	for _, name := range []string{"1-2-3.chunk", "put-12345"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewDiskStore(dir, false)
		if err == nil {
			s.Close()
			t.Fatalf("%s: opened a directory of per-chunk files", name)
		}
		if !strings.Contains(err.Error(), "one-file-per-chunk") || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error %q does not name the format change", name, err)
		}
	}
}

// The disk store's per-chunk costs, as the provider pays them: a 64 KiB
// Put, a 64 KiB GetInto into a reused buffer, and a 4 KiB GetRange.
func BenchmarkDiskStorePut64K(b *testing.B) {
	s, err := NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := payload(1, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(Key{Index: uint64(i)}, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore is a disk store holding 64 chunks of 64 KiB.
func benchStore(b *testing.B) *DiskStore {
	b.Helper()
	s, err := NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put(Key{Index: uint64(i)}, payload(i, 64<<10)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkDiskStoreGetInto64K(b *testing.B) {
	s := benchStore(b)
	defer s.Close()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetInto(Key{Index: uint64(i % 64)}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskStoreGetRange4K(b *testing.B) {
	s := benchStore(b)
	defer s.Close()
	b.SetBytes(4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetRange(Key{Index: uint64(i % 64)}, 8<<10, 4<<10); err != nil {
			b.Fatal(err)
		}
	}
}
