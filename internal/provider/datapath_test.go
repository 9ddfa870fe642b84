package provider_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// pattern returns n bytes of content unique to seed.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

// startTCPProvider serves a provider over TCP loopback and returns its
// address with a client for it.
func startTCPProvider(tb testing.TB, store chunk.Store, opts provider.Options) (string, *rpc.Client) {
	tb.Helper()
	network := rpc.NewTCPNetwork()
	srv, err := provider.NewServer(network, "127.0.0.1:0", store, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	cli := rpc.NewClient(network, 10*time.Second)
	tb.Cleanup(cli.Close)
	return srv.Addr(), cli
}

// TestSizedMessagesWireFrozen pins the encoding of every wire.Sizer
// message: Size must equal the encoded length (or Marshal reallocates and
// PutMessage over-grows), and PutMessage must write exactly what
// PutBytes(Marshal(m)) wrote before bodies were encoded in place.
func TestSizedMessagesWireFrozen(t *testing.T) {
	dg := chunk.DigestOf([]byte("d"))
	for _, tc := range []struct {
		name string
		msg  interface {
			wire.Message
			wire.Sizer
		}
	}{
		{"PutChunksReq", &provider.PutChunksReq{Items: []provider.PutItem{
			{Key: chunk.Key{Blob: 1, Index: 0}, Data: pattern(2, 64), Digest: dg},
			{Key: chunk.Key{Blob: 1, Index: 1}},
			{Key: chunk.Key{Blob: 1, Index: 2}, Data: pattern(3, 5000)},
		}}},
		{"PutChunksReq/empty", &provider.PutChunksReq{}},
		{"GetResp", &provider.GetResp{Found: true, Data: pattern(4, 300), Digest: dg}},
		{"GetResp/missing", &provider.GetResp{}},
		{"GetChunksResp", &provider.GetChunksResp{
			Found:   []bool{true, false, true},
			Corrupt: []bool{false, true, false},
			Data:    [][]byte{pattern(5, 70), nil, {}},
			Digests: []chunk.Digest{dg, {}, {}},
		}},
		{"GetChunksResp/empty", &provider.GetChunksResp{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := wire.Marshal(tc.msg)
			if got := tc.msg.Size(); got != len(body) {
				t.Fatalf("Size() = %d, encoded length %d", got, len(body))
			}
			want := wire.NewEncoder(0)
			want.PutBytes(body)
			got := wire.NewEncoder(0)
			if n := got.PutMessage(tc.msg); n != len(body) {
				t.Fatalf("PutMessage reported %d body bytes, want %d", n, len(body))
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("PutMessage bytes differ from PutBytes(Marshal(m))")
			}
		})
	}
}

// TestPipelinedRangeReadsDecodeInPlace pipelines 64 concurrent ranged
// reads of distinct chunks over one connection. Chunk payloads decode in
// place, aliasing their frames on both ends, so every result is checked
// only after all calls have returned: a frame reused or shared between
// calls would show up as another call's bytes (and, under -race, as a
// data race).
func TestPipelinedRangeReadsDecodeInPlace(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network rpc.Network
		addr    string
	}{
		{"sim", rpc.NewSimNetwork(nil), "dp"},
		{"tcp", rpc.NewTCPNetwork(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := provider.NewServer(tc.network, tc.addr, chunk.NewMemStore(), provider.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli := rpc.NewClient(tc.network, 10*time.Second)
			defer cli.Close()
			addr := srv.Addr()

			const calls, size = 64, 8 << 10
			items := make([]provider.PutItem, calls)
			for i := range items {
				items[i] = provider.PutItem{Key: chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}, Data: pattern(i, size)}
			}
			if errs, err := provider.PutChunks(cli, addr, items); err != nil {
				t.Fatal(err)
			} else {
				for i, e := range errs {
					if e != nil {
						t.Fatalf("put %d: %v", i, e)
					}
				}
			}

			// Odd calls read a sub-range (no end-to-end digest check on the
			// client), even ones the whole chunk.
			bounds := func(i int) (off, length uint64) {
				if i%2 == 0 {
					return 0, 0
				}
				return uint64(i * 61), uint64(size / 2)
			}
			got := make([][]byte, calls)
			errs := make([]error, calls)
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					off, length := bounds(i)
					got[i], errs[i] = provider.GetChunkRange(cli, addr, items[i].Key, off, length)
				}(i)
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("call %d: %v", i, errs[i])
				}
				off, length := bounds(i)
				if want := chunk.Clip(items[i].Data, off, length); !bytes.Equal(got[i], want) {
					t.Fatalf("call %d: %d bytes that are not its chunk's range [%d,+%d)", i, len(got[i]), off, length)
				}
			}
		})
	}
}

// TestConcurrentDiskGetsKeepTheirBuffers runs 64 concurrent whole-chunk
// gets of distinct chunks from a disk store over TCP loopback. Each chunk
// is read into a pooled buffer that its reply carries until encoded, so a
// buffer handed back to the pool too early would let another get's chunk
// overwrite it: every result is compared byte for byte with its own
// pattern (and, under -race, the early reuse shows as a data race).
func TestConcurrentDiskGetsKeepTheirBuffers(t *testing.T) {
	store, err := chunk.NewDiskStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	addr, cli := startTCPProvider(t, store, provider.Options{})
	const calls, size = 64, 64 << 10
	keys := make([]chunk.Key, calls)
	for i := range keys {
		keys[i] = chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}
		if err := putOne(cli, addr, keys[i], pattern(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		got := make([][]byte, calls)
		errs := make([]error, calls)
		var wg sync.WaitGroup
		for i := range keys {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = provider.GetChunk(cli, addr, keys[i])
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d, get %d: %v", round, i, errs[i])
			}
			if !bytes.Equal(got[i], pattern(i, size)) {
				t.Fatalf("round %d, get %d: %d bytes that are not its chunk", round, i, len(got[i]))
			}
		}
	}
}

// BenchmarkGetChunk64K reads one 64 KiB chunk per op over TCP loopback.
func BenchmarkGetChunk64K(b *testing.B) {
	addr, cli := startTCPProvider(b, chunk.NewMemStore(), provider.Options{})
	benchGetChunk64K(b, addr, cli)
}

// BenchmarkGetChunk64KDisk is BenchmarkGetChunk64K against a disk store
// with an fsync'd sidecar: the provider reads the chunk file into a pooled
// buffer and checks its journaled digest before serving it.
func BenchmarkGetChunk64KDisk(b *testing.B) {
	store, err := chunk.NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	addr, cli := startTCPProvider(b, store, provider.Options{SidecarDir: b.TempDir(), FsyncSidecar: true})
	benchGetChunk64K(b, addr, cli)
}

func benchGetChunk64K(b *testing.B, addr string, cli *rpc.Client) {
	key := chunk.Key{Blob: 1, Version: 1}
	if err := putOne(cli, addr, key, pattern(1, 64<<10)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := provider.GetChunk(cli, addr, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutChunks2MiB stores 32 x 64 KiB chunks in one putchunks per op
// over TCP loopback; each batch is deleted again untimed so the store
// stays small.
func BenchmarkPutChunks2MiB(b *testing.B) {
	addr, cli := startTCPProvider(b, chunk.NewMemStore(), provider.Options{})
	benchPutChunks2MiB(b, addr, cli)
}

// BenchmarkPutChunks2MiBSidecar is BenchmarkPutChunks2MiB against a disk
// store with an fsync'd sidecar: the provider's durable write path, where
// each putchunks pays its sidecar journal's group-commit wait.
func BenchmarkPutChunks2MiBSidecar(b *testing.B) {
	store, err := chunk.NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	addr, cli := startTCPProvider(b, store, provider.Options{SidecarDir: b.TempDir(), FsyncSidecar: true})
	benchPutChunks2MiB(b, addr, cli)
}

func benchPutChunks2MiB(b *testing.B, addr string, cli *rpc.Client) {
	items := make([]provider.PutItem, 32)
	keys := make([]chunk.Key, len(items))
	for i := range items {
		data := pattern(i, 64<<10)
		items[i] = provider.PutItem{Key: chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}, Data: data, Digest: chunk.DigestOf(data)}
		keys[i] = items[i].Key
	}
	b.SetBytes(32 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs, err := provider.PutChunks(cli, addr, items)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
		b.StopTimer()
		if _, err := provider.DeleteChunks(context.Background(), cli, addr, keys); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
