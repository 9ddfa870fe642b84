package provider_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
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
// message: Size(0) must equal the encoded length (or Marshal reallocates
// and PutMessage over-grows), Size(r) what an encoder referencing fields
// of at least r bytes keeps in its buffer, and PutMessage must write
// exactly what PutBytes(Marshal(m)) wrote before bodies were encoded in
// place.
func TestSizedMessagesWireFrozen(t *testing.T) {
	dg := chunk.DigestOf([]byte("d"))
	put := []provider.PutItem{
		{Key: chunk.Key{Blob: 1, Index: 0}, Data: pattern(2, 64), Digest: dg},
		{Key: chunk.Key{Blob: 1, Index: 1}},
		{Key: chunk.Key{Blob: 1, Index: 2}, Data: pattern(3, 5000)},
	}
	get := pattern(4, 300)
	getMany := [][]byte{pattern(5, 70), nil, {}}
	for _, tc := range []struct {
		name string
		msg  interface {
			wire.Message
			wire.Sizer
		}
		payloads [][]byte
	}{
		{"PutChunksReq", &provider.PutChunksReq{Items: put}, [][]byte{put[0].Data, put[2].Data}},
		{"PutChunksReq/empty", &provider.PutChunksReq{}, nil},
		{"GetResp", &provider.GetResp{Found: true, Data: get, Digest: dg}, [][]byte{get}},
		{"GetResp/missing", &provider.GetResp{}, nil},
		{"GetChunksResp", &provider.GetChunksResp{
			Found:   []bool{true, false, true},
			Corrupt: []bool{false, true, false},
			Data:    getMany,
			Digests: []chunk.Digest{dg, {}, {}},
		}, getMany[:1]},
		{"GetChunksResp/empty", &provider.GetChunksResp{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := wire.Marshal(tc.msg)
			if got := tc.msg.Size(0); got != len(body) {
				t.Fatalf("Size(0) = %d, encoded length %d", got, len(body))
			}
			for _, r := range []int{1, 65, 301, 5000, 5001} {
				e := wire.NewEncoder(0)
				e.ReferenceFrom(r)
				tc.msg.Encode(e)
				if got, want := tc.msg.Size(r), buffered(e, tc.payloads); got != want {
					t.Fatalf("Size(%d) = %d, but %d bytes of the encoding are copied", r, got, want)
				}
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

// buffered returns how many of e's bytes it copied into its own buffer:
// all but the segments that are one of payloads, referenced.
func buffered(e *wire.Encoder, payloads [][]byte) int {
	n := 0
	for _, s := range e.Segments() {
		n += len(s)
		for _, p := range payloads {
			if len(s) > 0 && len(p) == len(s) && &p[0] == &s[0] {
				n -= len(s)
				break
			}
		}
	}
	return n
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

// badNIC is a client transport that flips one byte in the middle of every
// chunk-sized frame received from one address: corruption in transit,
// which only the client's end-to-end digest check can see (a provider
// checks its stored bytes before serving them, so rot at rest comes back
// as a corrupt error, never as a reply that fails the client's check).
type badNIC struct {
	rpc.Network
	addr string
}

func (n badNIC) Dial(addr string) (rpc.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil || addr != n.addr {
		return c, err
	}
	return flipConn{c}, nil
}

type flipConn struct{ rpc.Conn }

func (c flipConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) >= 64<<10 {
		msg[len(msg)/2] ^= 0xFF
	}
	return msg, err
}

// TestConcurrentReadsKeepTheirFrames runs 64 concurrent GetChunkInto
// reads of distinct 64 KiB chunks, 4 rounds, over TCP loopback from two
// disk-store replicas, through a transport wrapper that only has Recv, so
// replies take the frame path, not the land-in-place one: each reply
// frame comes from the buffer pool and goes back once copied into the
// reader's buffer. Every read tries first
// the replica behind a bad NIC, whose digest-mismatch reply is released
// unread, then the good one, whose reply likely lands in a frame another
// read just released. A frame handed back before its bytes were copied
// out shows as another chunk's bytes in the reader's buffer (and, under
// -race, as a data race).
func TestConcurrentReadsKeepTheirFrames(t *testing.T) {
	const calls, size = 64, 64 << 10
	var addrs [2]string
	for i := range addrs {
		store, err := chunk.NewDiskStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		var cli *rpc.Client
		addrs[i], cli = startTCPProvider(t, store, provider.Options{})
		items := make([]provider.PutItem, calls)
		for j := range items {
			data := pattern(j, size)
			items[j] = provider.PutItem{Key: chunk.Key{Blob: 1, Version: 1, Index: uint64(j)}, Data: data, Digest: chunk.DigestOf(data)}
		}
		for _, item := range items {
			if errs, err := provider.PutChunks(cli, addrs[i], []provider.PutItem{item}); err != nil || errs[0] != nil {
				t.Fatalf("put %s on replica %d: %v %v", item.Key, i, err, errs)
			}
		}
	}
	bad, good := addrs[0], addrs[1]
	cli := rpc.NewClient(badNIC{Network: rpc.NewTCPNetwork(), addr: bad}, 10*time.Second)
	defer cli.Close()
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		got := make([][]byte, calls)
		errs := make([]error, calls)
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}
				dst := make([]byte, size)
				if _, err := provider.GetChunkInto(ctx, cli, bad, key, 0, 0, dst); !provider.IsCorrupt(err) {
					errs[i] = fmt.Errorf("read through the bad NIC: err = %v, want ErrChunkCorrupt", err)
					return
				}
				n, err := provider.GetChunkInto(ctx, cli, good, key, 0, 0, dst)
				got[i], errs[i] = dst[:n], err
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d, read %d: %v", round, i, errs[i])
			}
			if !bytes.Equal(got[i], pattern(i, size)) {
				t.Fatalf("round %d, read %d: %d bytes that are not its chunk", round, i, len(got[i]))
			}
		}
	}
}

// flipProxy is a TCP proxy in front of one provider that flips one byte
// in the middle of every reply frame of at least 64 KiB — corruption on
// the wire, below the rpc layer, so the client reads it off the socket
// straight into the caller's buffer — and records the method of every
// request it forwards.
type flipProxy struct {
	l       net.Listener
	target  string
	mu      sync.Mutex
	methods []string
}

func startFlipProxy(t *testing.T, target string) *flipProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flipProxy{l: l, target: target}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				return
			}
			go p.pipe(c, s, p.request)
			go p.pipe(s, c, flipMiddle)
		}
	}()
	return p
}

// pipe forwards frames from src to dst, passing each through f.
func (p *flipProxy) pipe(src, dst net.Conn, f func([]byte)) {
	defer src.Close()
	defer dst.Close()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		msg := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(src, msg); err != nil {
			return
		}
		f(msg)
		if _, err := dst.Write(append(hdr[:], msg...)); err != nil {
			return
		}
	}
}

// request records a request frame's method: kind u8, id u64, method.
func (p *flipProxy) request(msg []byte) {
	d := wire.NewDecoder(msg)
	d.U8()
	d.U64()
	m := d.String()
	p.mu.Lock()
	p.methods = append(p.methods, m)
	p.mu.Unlock()
}

func (p *flipProxy) sawMethod(m string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Contains(p.methods, m)
}

func flipMiddle(msg []byte) {
	if len(msg) >= 64<<10 {
		msg[len(msg)/2] ^= 0xFF
	}
}

// TestTransitCorruptionLandsInPlace: a chunk reply corrupted on the wire
// is read straight into the caller's buffer and fails its digest check
// there: GetChunkInto returns ErrChunkCorrupt and asks the provider to
// verify its copy, and the failover to a good replica overwrites the
// rot in the same buffer with the chunk's bytes.
func TestTransitCorruptionLandsInPlace(t *testing.T) {
	const size = 64 << 10
	key := chunk.Key{Blob: 1, Version: 1}
	want := pattern(1, size)
	var addrs [2]string
	for i := range addrs {
		var cli *rpc.Client
		addrs[i], cli = startTCPProvider(t, chunk.NewMemStore(), provider.Options{})
		if err := putOne(cli, addrs[i], key, want); err != nil {
			t.Fatal(err)
		}
	}
	proxy := startFlipProxy(t, addrs[0])
	bad, good := proxy.l.Addr().String(), addrs[1]
	cli := rpc.NewClient(rpc.NewTCPNetwork(), 10*time.Second)
	defer cli.Close()
	ctx := context.Background()
	dst := make([]byte, size)
	if _, err := provider.GetChunkInto(ctx, cli, bad, key, 0, 0, dst); !provider.IsCorrupt(err) {
		t.Fatalf("read through the corrupting proxy: err = %v, want ErrChunkCorrupt", err)
	}
	if bytes.Equal(dst, want) || bytes.Equal(dst, make([]byte, size)) {
		t.Fatal("the corrupt reply did not land in the caller's buffer")
	}
	if !proxy.sawMethod(provider.MethodVerify) {
		t.Fatal("the provider behind the proxy was not asked to verify")
	}
	n, err := provider.GetChunkInto(ctx, cli, good, key, 0, 0, dst)
	if err != nil || n != size || !bytes.Equal(dst, want) {
		t.Fatalf("failover read: %d bytes, %v; chunk's bytes in the buffer: %v", n, err, bytes.Equal(dst, want))
	}
}

// detour is a network that dials one address's traffic to another.
type detour struct {
	rpc.Network
	from, to string
}

func (d detour) Dial(addr string) (rpc.Conn, error) {
	if addr == d.from {
		addr = d.to
	}
	return d.Network.Dial(addr)
}

// TestBatchedReadRejectsTransitCorruption: a client read whose batched
// reply is corrupted on the wire (the flip proxy sits in front of the
// first chunk's first replica) gets it in the read's buffer, where
// the chunk fails its end-to-end digest check; the replica behind the
// proxy is asked to verify its copy, and the good replica's bytes end up
// in the same buffer.
func TestBatchedReadRejectsTransitCorruption(t *testing.T) {
	c, err := cluster.Start(cluster.Config{UseTCP: true, DataProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writer, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := writer.CreateBlob(64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(7, 8*64<<10)
	v, err := blob.Write(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := blob.Locations(v, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	bad := locs[0].Providers[0]
	proxy := startFlipProxy(t, bad)
	cli, err := core.NewClient(core.Config{
		Network:       detour{Network: rpc.NewTCPNetwork(), from: bad, to: proxy.l.Addr().String()},
		VMAddr:        c.VMAddr(),
		PMAddr:        c.PMAddr(),
		MetaProviders: c.MetaAddrs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBlob(blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, len(data))
	if _, err := b.Read(v, p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data) {
		t.Fatal("the read's buffer does not hold the blob's bytes")
	}
	if !proxy.sawMethod(provider.MethodGetChunks) || !proxy.sawMethod(provider.MethodVerify) {
		t.Fatal("the corrupting proxy saw no getchunks, or no verify")
	}
	if cli.IOStats().ChunkCorruptReads == 0 {
		t.Fatal("no replica read was counted corrupt")
	}
}

// BenchmarkGetChunk64K reads one 64 KiB chunk per op over TCP loopback.
func BenchmarkGetChunk64K(b *testing.B) {
	addr, cli := startTCPProvider(b, chunk.NewMemStore(), provider.Options{})
	benchGetChunk64K(b, addr, cli)
}

// BenchmarkGetChunk64KDisk is BenchmarkGetChunk64K against a disk store
// with an fsync'd sidecar: the provider reads the chunk record into a pooled
// buffer and checks its journaled digest before serving it.
func BenchmarkGetChunk64KDisk(b *testing.B) {
	store, err := chunk.NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	addr, cli := startTCPProvider(b, store, provider.Options{SidecarDir: b.TempDir(), FsyncSidecar: true})
	benchGetChunk64K(b, addr, cli)
}

// BenchmarkGetChunkInto64K is BenchmarkGetChunk64KDisk reading through
// GetChunkInto, the client read path: the reply's payload is read from
// the socket straight into the caller's buffer.
func BenchmarkGetChunkInto64K(b *testing.B) {
	store, err := chunk.NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	addr, cli := startTCPProvider(b, store, provider.Options{SidecarDir: b.TempDir(), FsyncSidecar: true})
	key := chunk.Key{Blob: 1, Version: 1}
	if err := putOne(cli, addr, key, pattern(1, 64<<10)); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := provider.GetChunkInto(context.Background(), cli, addr, key, 0, 0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetChunksInto16x64K reads 16 x 64 KiB chunks per op with one
// getchunks into the caller's buffers (GetChunksInto, the client read
// path for whole chunks), against BenchmarkGetChunkInto64K's disk store.
func BenchmarkGetChunksInto16x64K(b *testing.B) {
	store, err := chunk.NewDiskStore(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	addr, cli := startTCPProvider(b, store, provider.Options{SidecarDir: b.TempDir(), FsyncSidecar: true})
	keys := make([]chunk.Key, 16)
	dst := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}
		dst[i] = make([]byte, 64<<10)
		if err := putOne(cli, addr, keys[i], pattern(i, 64<<10)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(16 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := provider.GetChunksInto(context.Background(), cli, addr, keys, dst)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range got {
			if g.Err != nil {
				b.Fatal(g.Err)
			}
		}
	}
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
