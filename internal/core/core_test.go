package core_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/vmanager"
)

func startCluster(t testing.TB, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func newClient(t testing.TB, c *cluster.Cluster, opts cluster.ClientOptions) *core.Client {
	t.Helper()
	cli, err := c.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

func readAll(t *testing.T, b *core.Blob, version uint64) []byte {
	t.Helper()
	size, err := b.Size(version)
	if err != nil {
		t.Fatalf("Size(v%d): %v", version, err)
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf
	}
	n, err := b.Read(version, buf, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("Read(v%d): %v", version, err)
	}
	if uint64(n) != size {
		t.Fatalf("Read(v%d) = %d bytes, want %d", version, n, size)
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, err := cli.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(64<<10, 1) // 16 chunks
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	got := readAll(t, blob, v)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	// Sub-range read across chunk boundaries.
	sub := make([]byte, 10000)
	n, err := blob.Read(v, sub, 3000)
	if err != nil || n != 10000 {
		t.Fatalf("sub-read = %d, %v", n, err)
	}
	if !bytes.Equal(sub, data[3000:13000]) {
		t.Fatal("sub-read mismatch")
	}
}

func TestVersioningKeepsHistory(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 1)

	d1 := pattern(8192, 10)
	v1, err := blob.Write(d1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the middle two chunks.
	d2 := pattern(2048, 200)
	v2, err := blob.Write(d2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+1 {
		t.Fatalf("v2 = %d", v2)
	}

	// Old snapshot intact.
	if got := readAll(t, blob, v1); !bytes.Equal(got, d1) {
		t.Fatal("v1 snapshot changed after overwrite")
	}
	// New snapshot shows overlay.
	want := append([]byte(nil), d1...)
	copy(want[2048:], d2)
	if got := readAll(t, blob, v2); !bytes.Equal(got, want) {
		t.Fatal("v2 mismatch")
	}
	// Latest resolves to v2.
	if got := readAll(t, blob, 0); !bytes.Equal(got, want) {
		t.Fatal("latest mismatch")
	}
}

func TestAppendGrowsBlob(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(512, 1)

	var want []byte
	for i := 0; i < 5; i++ {
		part := pattern(512*3, byte(i*40))
		v, off, err := blob.Append(part)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if off != uint64(len(want)) {
			t.Fatalf("append %d offset = %d, want %d", i, off, len(want))
		}
		if v != uint64(i+1) {
			t.Fatalf("append %d version = %d", i, v)
		}
		want = append(want, part...)
	}
	if got := readAll(t, blob, 0); !bytes.Equal(got, want) {
		t.Fatal("appended content mismatch")
	}
}

func TestUnalignedWriteAndAppendRMW(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1000, 1)

	model := []byte{}
	apply := func(p []byte, off uint64) {
		need := int(off) + len(p)
		for len(model) < need {
			model = append(model, 0)
		}
		copy(model[off:], p)
	}

	// Unaligned initial write.
	w1 := pattern(2500, 1)
	if _, err := blob.Write(w1, 0); err != nil {
		t.Fatal(err)
	}
	apply(w1, 0)
	// Unaligned interior overwrite (starts and ends mid-chunk).
	w2 := pattern(777, 99)
	if _, err := blob.Write(w2, 150); err != nil {
		t.Fatal(err)
	}
	apply(w2, 150)
	// Unaligned append (blob size is 2500, mid-chunk).
	w3 := pattern(1300, 55)
	if _, off, err := blob.Append(w3); err != nil || off != 2500 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	apply(w3, 2500)
	// Sparse write far past the end: the gap must read as zeros.
	w4 := pattern(100, 77)
	if _, err := blob.Write(w4, 6000); err != nil {
		t.Fatal(err)
	}
	apply(w4, 6000)

	if got := readAll(t, blob, 0); !bytes.Equal(got, model) {
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("content mismatch at byte %d: got %d want %d", i, got[i], model[i])
			}
		}
	}
}

func TestConcurrentAppenders(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 8})
	const writers = 16
	const partSize = 4096 // chunk-aligned: fully parallel path
	cc := startClients(t, c, writers)
	blob, _ := cc[0].CreateBlob(1024, 1)

	var wg sync.WaitGroup
	offsets := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := cc[w].OpenBlob(blob.ID())
			if err != nil {
				t.Error(err)
				return
			}
			_, off, err := b.Append(pattern(partSize, byte(w+1)))
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			offsets[w] = off
		}(w)
	}
	wg.Wait()

	full := readAll(t, blob, 0)
	if len(full) != writers*partSize {
		t.Fatalf("size = %d, want %d", len(full), writers*partSize)
	}
	for w := 0; w < writers; w++ {
		got := full[offsets[w] : offsets[w]+partSize]
		if !bytes.Equal(got, pattern(partSize, byte(w+1))) {
			t.Errorf("writer %d range corrupted", w)
		}
	}
}

func startClients(t testing.TB, c *cluster.Cluster, n int) []*core.Client {
	t.Helper()
	out := make([]*core.Client, n)
	for i := range out {
		out[i] = newClient(t, c, cluster.ClientOptions{})
	}
	return out
}

func TestConcurrentWritersDisjointRanges(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 8})
	const writers = 12
	const part = 8192
	cc := startClients(t, c, writers)
	blob, _ := cc[0].CreateBlob(2048, 1)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := cc[w].OpenBlob(blob.ID())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := b.Write(pattern(part, byte(w+1)), uint64(w*part)); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	full := readAll(t, blob, 0)
	if len(full) != writers*part {
		t.Fatalf("size = %d", len(full))
	}
	for w := 0; w < writers; w++ {
		if !bytes.Equal(full[w*part:(w+1)*part], pattern(part, byte(w+1))) {
			t.Errorf("writer %d range corrupted", w)
		}
	}
}

// Readers working on a published snapshot must be completely undisturbed
// by concurrent writers — the paper's central read/write decoupling claim.
func TestReadersIsolatedFromWriters(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 8})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 1)
	base := pattern(32<<10, 7)
	v1, err := blob.Write(base, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		wcli := newClient(t, c, cluster.ClientOptions{})
		wb, err := wcli.OpenBlob(blob.ID())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := wb.Write(pattern(4096, byte(i)), uint64((i%8)*4096)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var readerWg sync.WaitGroup
	for r := 0; r < 8; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			rb, err := newClient(t, c, cluster.ClientOptions{}).OpenBlob(blob.ID())
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(base))
			for i := 0; i < 20; i++ {
				n, err := rb.Read(v1, buf, 0)
				if err != nil && err != io.EOF {
					t.Errorf("reader: %v", err)
					return
				}
				if !bytes.Equal(buf[:n], base) {
					t.Error("reader observed writer interference on an immutable snapshot")
					return
				}
			}
		}()
	}
	readerWg.Wait()
	close(stop)
	writerWg.Wait()
}

func TestReplicationSurvivesProviderCrash(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 4})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 3) // 3 replicas
	data := pattern(16<<10, 3)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one provider; every chunk still has two replicas.
	c.KillProvider(0)
	got := readAll(t, blob, v)
	if !bytes.Equal(got, data) {
		t.Fatal("read after provider crash mismatch")
	}
	// Kill a second one; still one replica left of every chunk.
	c.KillProvider(1)
	got = readAll(t, blob, v)
	if !bytes.Equal(got, data) {
		t.Fatal("read after two crashes mismatch")
	}
}

func TestWriteFailureAbortsVersion(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 2})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 1)
	if _, err := blob.Write(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Take the whole data plane down: the next write must fail cleanly.
	c.KillProvider(0)
	c.KillProvider(1)
	if _, _, err := blob.Append(pattern(4096, 2)); err == nil {
		t.Fatal("append succeeded with all providers down")
	}
	// The blob is not wedged: revive and write again.
	c.ReviveProvider(0)
	c.ReviveProvider(1)
	if _, _, err := blob.Append(pattern(4096, 3)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	// The aborted append consumed its assigned range, which reads back as
	// zeros (abort repair weaves an identity tree for the failed version).
	size, err := blob.Size(0)
	if err != nil {
		t.Fatal(err)
	}
	if size != 12288 {
		t.Fatalf("size = %d, want 12288", size)
	}
	full := readAll(t, blob, 0)
	if !bytes.Equal(full[:4096], pattern(4096, 1)) {
		t.Error("v1 range corrupted by abort")
	}
	for i, v := range full[4096:8192] {
		if v != 0 {
			t.Fatalf("aborted range byte %d = %d, want 0", i, v)
		}
	}
	if !bytes.Equal(full[8192:], pattern(4096, 3)) {
		t.Error("post-recovery append range corrupted")
	}
}

func TestReadValidation(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 1)

	// Reading an empty blob.
	buf := make([]byte, 10)
	if n, err := blob.Read(0, buf, 0); n != 0 || err != io.EOF {
		t.Errorf("read empty = %d, %v", n, err)
	}
	v, _ := blob.Write(pattern(2048, 1), 0)
	// Unpublished / unknown version.
	if _, err := blob.Read(v+5, buf, 0); err == nil {
		t.Error("read of unassigned version succeeded")
	}
	// Offset past EOF.
	if n, err := blob.Read(v, buf, 99999); n != 0 || err != io.EOF {
		t.Errorf("read past EOF = %d, %v", n, err)
	}
	// Short read at the tail.
	tail := make([]byte, 100)
	n, err := blob.Read(v, tail, 2000)
	if n != 48 || err != io.EOF {
		t.Errorf("tail read = %d, %v; want 48, EOF", n, err)
	}
}

func TestLocations(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 4})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 2)
	v, err := blob.Write(pattern(4096, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := blob.Locations(v, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("locations = %d, want 4", len(locs))
	}
	for i, l := range locs {
		if l.Offset != uint64(i*1024) || l.Length != 1024 {
			t.Errorf("loc %d = %+v", i, l)
		}
		if len(l.Providers) != 2 {
			t.Errorf("loc %d has %d replicas, want 2", i, len(l.Providers))
		}
	}
}

func TestMetadataCacheEffectiveness(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{MetaCacheNodes: 4096})
	blob, _ := cli.CreateBlob(1024, 1)
	data := pattern(64<<10, 9)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	for i := 0; i < 5; i++ {
		if _, err := blob.Read(v, buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	hits, misses := cli.MetaCacheStats()
	if hits == 0 {
		t.Errorf("metadata cache never hit (hits=%d misses=%d)", hits, misses)
	}
	// Repeated reads of an immutable snapshot should be nearly all hits.
	if hits < misses {
		t.Errorf("cache ineffective: hits=%d misses=%d", hits, misses)
	}
}

func TestManyVersionsRandomizedAgainstModel(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 6})
	cli := newClient(t, c, cluster.ClientOptions{MetaCacheNodes: 8192})
	blob, _ := cli.CreateBlob(512, 1)
	rng := rand.New(rand.NewSource(42))

	type snapshot struct {
		version uint64
		content []byte
	}
	var snaps []snapshot
	model := []byte{}
	for i := 0; i < 25; i++ {
		var off uint64
		size := 1 + rng.Intn(3000)
		if rng.Intn(3) == 0 || len(model) == 0 {
			off = uint64(len(model)) // append-like
		} else {
			off = uint64(rng.Intn(len(model)))
		}
		p := pattern(size, byte(i+1))
		v, err := blob.Write(p, off)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		need := int(off) + size
		for len(model) < need {
			model = append(model, 0)
		}
		copy(model[off:], p)
		snaps = append(snaps, snapshot{v, append([]byte(nil), model...)})
	}
	// Every historical snapshot must read back exactly.
	for _, s := range snaps {
		if got := readAll(t, blob, s.version); !bytes.Equal(got, s.content) {
			t.Fatalf("snapshot v%d mismatch", s.version)
		}
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	c := startCluster(t, cluster.Config{UseTCP: true, DataProviders: 3, MetaProviders: 2})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, err := cli.CreateBlob(2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(32<<10, 11)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, blob, v); !bytes.Equal(got, data) {
		t.Fatal("TCP round trip mismatch")
	}
	if _, _, err := blob.Append(pattern(5000, 12)); err != nil {
		t.Fatal(err)
	}
	size, _ := blob.Size(0)
	if size != uint64(len(data)+5000) {
		t.Fatalf("size = %d", size)
	}
}

func TestOpenBlobAndList(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	b1, _ := cli.CreateBlob(1024, 1)
	b2, _ := cli.CreateBlob(2048, 2)
	ids, err := cli.ListBlobs()
	if err != nil || len(ids) != 2 {
		t.Fatalf("list = %v, %v", ids, err)
	}
	re, err := cli.OpenBlob(b2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if re.ChunkSize() != 2048 || re.Replication() != 2 {
		t.Errorf("reopened blob = cs%d r%d", re.ChunkSize(), re.Replication())
	}
	if _, err := cli.OpenBlob(b1.ID() + 100); err == nil {
		t.Error("open of unknown blob succeeded")
	}
}

func TestWaitPublishedAcrossClients(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli1 := newClient(t, c, cluster.ClientOptions{})
	cli2 := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli1.CreateBlob(1024, 1)

	done := make(chan error, 1)
	go func() {
		b2, err := cli2.OpenBlob(blob.ID())
		if err != nil {
			done <- err
			return
		}
		done <- b2.WaitPublished(1)
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := blob.Write(pattern(1024, 1), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitPublished never returned")
	}
}

func TestErrFailedVersionSurfaced(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 1})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, _ := cli.CreateBlob(1024, 1)
	if _, err := blob.Write(pattern(1024, 1), 0); err != nil {
		t.Fatal(err)
	}
	c.KillProvider(0)
	_, _, err := blob.Append(pattern(1024, 2))
	if err == nil {
		t.Fatal("append with dead provider succeeded")
	}
	c.ReviveProvider(0)
	if _, _, err := blob.Append(pattern(1024, 3)); err != nil {
		t.Fatal(err)
	}
	// Version 2 was aborted; reading it explicitly must fail with
	// ErrFailedVersion.
	buf := make([]byte, 10)
	_, err = blob.Read(2, buf, 0)
	if !errors.Is(err, core.ErrFailedVersion) {
		t.Fatalf("read of aborted version = %v, want ErrFailedVersion", err)
	}
}

func TestManyBlobsIsolated(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	blobs := make([]*core.Blob, 5)
	for i := range blobs {
		b, err := cli.CreateBlob(1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
		if _, err := b.Write(pattern(4096, byte(i+1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range blobs {
		if got := readAll(t, b, 0); !bytes.Equal(got, pattern(4096, byte(i+1))) {
			t.Errorf("blob %d content bled across blobs", i)
		}
	}
}

// TestWritePutRPCBound asserts the write-plane batching acceptance bound:
// a cold 64-chunk aligned write at replication 2 against 4 providers is
// 128 chunk-replica store operations but at most 8 provider.putchunks
// round trips (it was 128 provider.put RPCs before grouping; the
// cross-rank per-address grouping typically lands at ~4).
func TestWritePutRPCBound(t *testing.T) {
	const chunkSize, chunks, repl, providers = 4096, 64, 2, 4
	c := startCluster(t, cluster.Config{DataProviders: providers})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, err := cli.CreateBlob(chunkSize, repl)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(chunkSize*chunks, 9)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := cli.IOStats()
	if st.ChunkPutOps != chunks*repl {
		t.Errorf("ChunkPutOps = %d, want %d", st.ChunkPutOps, chunks*repl)
	}
	if st.ChunkPutRPCs > 2*providers {
		t.Errorf("64-chunk write at repl 2 issued %d putchunks RPCs, bound %d", st.ChunkPutRPCs, 2*providers)
	}
	if st.ChunkBytesOut != int64(len(data))*repl {
		t.Errorf("ChunkBytesOut = %d, want %d", st.ChunkBytesOut, len(data)*repl)
	}
	if got := readAll(t, blob, v); !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	t.Logf("%d chunk-replica ops in %d putchunks RPCs", st.ChunkPutOps, st.ChunkPutRPCs)
}

// TestWriteRetryExcludesFailedProviders kills half the data plane right
// before a replicated write, so some replica sets consist entirely of
// dead providers (the provider manager has not aged them out yet). The
// per-chunk fallback must re-place those chunks on the survivors — the
// retry allocation excludes the providers that just failed, so it cannot
// hand back the dead pair — and the write must come out fully readable.
func TestWriteRetryExcludesFailedProviders(t *testing.T) {
	const chunkSize, chunks = 2048, 16
	c := startCluster(t, cluster.Config{DataProviders: 4})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.KillProvider(0)
	c.KillProvider(1)
	data := pattern(chunkSize*chunks, 17)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatalf("write with half the data plane dead: %v", err)
	}
	if got := readAll(t, blob, v); !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	// Every stored replica must be on a survivor: the fallback may not
	// have re-selected the providers that just failed.
	dead := map[string]bool{c.ProviderAddrs()[0]: true, c.ProviderAddrs()[1]: true}
	locs, err := blob.Locations(v, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if len(loc.Providers) == 0 {
			t.Fatalf("chunk at %d stored nowhere", loc.Offset)
		}
		for _, a := range loc.Providers {
			if dead[a] {
				t.Fatalf("chunk at %d placed on dead provider %s", loc.Offset, a)
			}
		}
	}
}

// TestWriteAfterTreelessAbortedVersion regression-tests the abort poison
// cascade: a version that is aborted WITHOUT its identity tree ever being
// woven (a crashed writer, or an abort repair that died with the control
// plane) used to wedge the blob — every later unaligned write's merge
// read "content as of prev" through the treeless version's missing root
// and failed, each retry aborting another treeless version behind it.
// Writers must instead resolve prior content from the newest non-failed
// version and succeed.
func TestWriteAfterTreelessAbortedVersion(t *testing.T) {
	c := startCluster(t, cluster.Config{DataProviders: 2})
	cli := newClient(t, c, cluster.ClientOptions{})
	blob, err := cli.CreateBlob(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := pattern(600, 5)
	if _, err := blob.Write(base, 0); err != nil {
		t.Fatal(err)
	}

	// Simulate the crashed writer: assign a version and abort it without
	// weaving anything — exactly what version-manager recovery (or a
	// repair that died mid-crash) leaves behind.
	raw := cli.RPC()
	var assign vmanager.AssignResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: blob.ID(), Offset: 100, Size: 300}, &assign); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call(c.VMAddr(), vmanager.MethodAbort,
		&vmanager.AbortReq{BlobID: blob.ID(), Version: assign.Version}, &vmanager.Ack{}); err != nil {
		t.Fatal(err)
	}

	// An unaligned overwrite whose boundary merge needs prior content.
	upd := pattern(600, 9)
	v, err := blob.Write(upd, 300)
	if err != nil {
		t.Fatalf("write after treeless aborted version: %v", err)
	}
	got := readAll(t, blob, v)
	want := append(append([]byte{}, base[:300]...), upd...)
	if !bytes.Equal(got, want) {
		t.Fatal("content after treeless abort diverged")
	}

	// And appends (whole-tree weave referencing the published snapshot)
	// must also ride over the hole.
	tail := pattern(500, 13)
	v2, _, err := blob.Append(tail)
	if err != nil {
		t.Fatalf("append after treeless aborted version: %v", err)
	}
	got = readAll(t, blob, v2)
	if !bytes.Equal(got, append(want, tail...)) {
		t.Fatal("append content diverged")
	}

	// Retention + GC over a treeless failed FRONTIER version: the floor
	// must stop at the newest live version, so a sweep reclaims nothing
	// a future merge or weave still needs. (The floor passing the live
	// snapshot would re-open the cascade through the GC.)
	var assign2 vmanager.AssignResp
	if err := raw.Call(c.VMAddr(), vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: blob.ID(), Offset: 0, Size: 100}, &assign2); err != nil {
		t.Fatal(err)
	}
	if err := raw.Call(c.VMAddr(), vmanager.MethodAbort,
		&vmanager.AbortReq{BlobID: blob.ID(), Version: assign2.Version}, &vmanager.Ack{}); err != nil {
		t.Fatal(err)
	}
	if err := blob.SetRetention(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Maint.Run(maint.Reclaim); err != nil {
		t.Fatalf("gc with failed frontier version: %v", err)
	}
	got = readAll(t, blob, v2)
	if !bytes.Equal(got, append(append([]byte{}, want...), tail...)) {
		t.Fatal("newest live version reclaimed or corrupted by GC under a failed frontier")
	}
	final := pattern(700, 21)
	vf, err := blob.Write(final, 450) // unaligned: merges through the swept history
	if err != nil {
		t.Fatalf("write after GC with failed frontier: %v", err)
	}
	got = readAll(t, blob, vf)
	wantF := append(append([]byte{}, want...), tail...)
	copy(wantF[450:], final)
	if !bytes.Equal(got, wantF) {
		t.Fatal("post-GC write content diverged")
	}
}

// TestConcurrentReadsKeepTheirFrames runs 64 concurrent readers, 4 rounds,
// each reading one distinct 64 KiB chunk into its own buffer over the
// simulated network. Every chunk reply's frame comes from the buffer pool
// and goes back once copied into the reader's buffer. Every fourth chunk's
// first-choice replica is rotted, so those reads get a corrupt reply and
// fail over to the other replica. A frame handed back before its bytes
// were copied out shows as another chunk's bytes (and, under -race, as a
// data race).
func TestConcurrentReadsKeepTheirFrames(t *testing.T) {
	c := startCluster(t, cluster.Config{})
	cli := newClient(t, c, cluster.ClientOptions{})
	const readers, size = 64, 64 << 10
	blob, err := cli.CreateBlob(size, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 0, readers*size)
	for i := 0; i < readers; i++ {
		data = append(data, pattern(size, byte(i))...)
	}
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := blob.Locations(v, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readers; i += 4 {
		p := slices.Index(c.ProviderAddrs(), locs[i].Providers[0])
		keys := c.Providers[p].Store().Keys()
		k := slices.IndexFunc(keys, func(k chunk.Key) bool { return k.Blob == blob.ID() && k.Index == uint64(i) })
		if p < 0 || k < 0 {
			t.Fatalf("chunk %d: no copy on its first replica %s", i, locs[i].Providers[0])
		}
		if err := c.CorruptChunk(p, keys[k], 5); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, size)
				if _, err := blob.Read(v, buf, uint64(i*size)); err != nil {
					t.Errorf("round %d, reader %d: %v", round, i, err)
					return
				}
				if !bytes.Equal(buf, pattern(size, byte(i))) {
					t.Errorf("round %d, reader %d: bytes that are not its chunk", round, i)
				}
			}(i)
		}
		wg.Wait()
	}
}
