package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/durable"
	"repro/internal/meta"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
	"repro/internal/wire"
)

// probeMetrics are the layer probes: one goroutine calls each layer's
// exported functions with the workloads' canonical inputs. They do not
// depend on the workload and are measured in every traced run.
var probeMetrics = []layerMetric{
	{"wire.putchunks_enc_us", "us", "lower"},
	{"wire.putchunks_dec_us", "us", "lower"},
	{"wire.nodes256_enc_us", "us", "lower"},
	{"wire.nodes256_dec_us", "us", "lower"},
	{"wire.allocs_per_msg", "count", "lower"},
	{"rpc.call_64b_us", "us", "lower"},
	{"rpc.call_64b_p99_us", "us", "lower"},
	{"rpc.call_4mib_ms", "ms", "lower"},
	{"rpc.call_allocs", "count", "lower"},
	{"durable.append_fsync_us", "us", "lower"},
	{"durable.append_fsync_2x_us", "us", "lower"},
	{"durable.syncs_per_append_2x", "ratio", "lower"},
	{"durable.append_nofsync_us", "us", "lower"},
	{"durable.replay_10k_ms", "ms", "lower"},
	{"chunk.disk_put_64k_us", "us", "lower"},
	{"chunk.disk_get_64k_us", "us", "lower"},
	{"chunk.disk_getrange_4k_us", "us", "lower"},
	{"chunk.mem_put_64k_us", "us", "lower"},
	{"chunk.digest_64k_us", "us", "lower"},
	{"dht.lookup_ns", "ns", "lower"},
	{"provider.putchunks_64x64k_ms", "ms", "lower"},
	{"provider.get_64k_us", "us", "lower"},
	{"provider.get_4k_range_us", "us", "lower"},
	{"meta.collect_cold_256_ms", "ms", "lower"},
	{"meta.collect_cold_256_rpcs", "count", "lower"},
	{"meta.collect_warm_256_us", "us", "lower"},
	{"meta.putnodes_64leaf_ms", "ms", "lower"},
	{"meta.weave_64leaf_us", "us", "lower"},
	{"vmanager.assign_commit_ms", "ms", "lower"},
	{"vmanager.latest_us", "us", "lower"},
	{"vmanager.versioninfo_us", "us", "lower"},
	{"pmanager.allocate_64x2_us", "us", "lower"},
	{"core.write_4mib_ms", "ms", "lower"},
	{"core.read_16mib_ms", "ms", "lower"},
	{"core.read_4k_ms", "ms", "lower"},
	{"core.append_64k_ms", "ms", "lower"},
	{"core.write_self_ms", "ms", "lower"},
	{"core.read_self_ms", "ms", "lower"},
}

// Blob ids the probes invent for keys that never pass through the version
// manager; far above anything it hands out in a run.
const (
	fakeBlobProvider = 1 << 40
	fakeBlobMeta     = 1 << 41
)

// prober runs the layer probes against a live traced deployment.
type prober struct {
	e     *env
	spans *spanRecorder
	obs   *rpcSpanObserver
	dir   string // scratch space inside the run directory
	out   map[string]float64
	rng   *rand.Rand

	// probe blob: 32 MiB of 64 KiB chunks at replication 2, written by the
	// core.write probe and read by the core.read, meta and hop-cost probes.
	cli     *core.Client // metadata cache off: every descent is cold
	blob    *core.Blob
	version uint64
}

const (
	usPerNs = 1e-3
	msPerNs = 1e-6
)

// timed calls fn n times, each call inside a benchmark-owned root span, and
// returns the ascending call durations in nanoseconds.
func (p *prober) timed(name string, n int, fn func(i int) error) ([]float64, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		id := p.spans.reserve(name, 0, start)
		p.obs.setRoot(id)
		err := fn(i)
		end := time.Now()
		p.obs.setRoot(0)
		p.spans.finish(id, end)
		if err != nil {
			return nil, fmt.Errorf("probe %s call %d: %w", name, i, err)
		}
		durs = append(durs, float64(end.Sub(start).Nanoseconds()))
	}
	return sorted(durs), nil
}

// med runs timed and stores the median under name, scaled to the metric's
// unit.
func (p *prober) med(name string, scale float64, n int, fn func(i int) error) error {
	durs, err := p.timed(name, n, fn)
	if err != nil {
		return err
	}
	p.out[name] = percentile(durs, 50) * scale
	return nil
}

func (p *prober) run() error {
	steps := []func() error{p.wire, p.rpc, p.durable, p.chunk, p.dht, p.core, p.meta, p.provider, p.vmanager, p.pmanager}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}

// blobMsg is an opaque payload for the rpc echo probe.
type blobMsg struct{ b []byte }

func (m *blobMsg) Encode(e *wire.Encoder) { e.PutBytes(m.b) }
func (m *blobMsg) Decode(d *wire.Decoder) { m.b = d.Bytes() }

func (p *prober) wire() error {
	items := make([]provider.PutItem, 64)
	for i := range items {
		data := make([]byte, bulkChunk)
		p.e.pat.fill(data, uint64(i)*bulkChunk, 0)
		items[i] = provider.PutItem{Key: chunk.Key{Blob: 1, Version: 7, Index: uint64(i)}, Data: data, Digest: chunk.DigestOf(data)}
	}
	put := &provider.PutChunksReq{Items: items}
	var buf []byte
	if err := p.med("wire.putchunks_enc_us", usPerNs, 32, func(int) error { buf = wire.Marshal(put); return nil }); err != nil {
		return err
	}
	if err := p.med("wire.putchunks_dec_us", usPerNs, 32, func(int) error {
		return wire.Unmarshal(buf, &provider.PutChunksReq{})
	}); err != nil {
		return err
	}
	nodes := &meta.GetNodesResp{}
	for i := 0; i < 256; i++ {
		nodes.Nodes = append(nodes.Nodes, &meta.Node{
			Key:  meta.NodeKey{Blob: 1, Version: 7, Off: uint64(i), Size: 1},
			Leaf: true,
			Chunk: meta.ChunkRef{Providers: p.e.dep.addrs(roleProv)[:2],
				Key: chunk.Key{Blob: 1, Version: 7, Index: uint64(i)}, Length: bulkChunk},
		})
	}
	var nbuf []byte
	if err := p.med("wire.nodes256_enc_us", usPerNs, 256, func(int) error { nbuf = wire.Marshal(nodes); return nil }); err != nil {
		return err
	}
	if err := p.med("wire.nodes256_dec_us", usPerNs, 256, func(int) error {
		return wire.Unmarshal(nbuf, &meta.GetNodesResp{})
	}); err != nil {
		return err
	}
	p.out["wire.allocs_per_msg"] = testing.AllocsPerRun(20, func() {
		b := wire.Marshal(nodes)
		_ = wire.Unmarshal(b, &meta.GetNodesResp{}) // decoded above without error
	})
	return nil
}

// rpc measures a call through the framing, the connection cache and the
// dispatcher, against an echo handler in this process over real TCP
// loopback. The allocation count covers both ends.
func (p *prober) rpc() error {
	network := rpc.NewTCPNetwork()
	srv := rpc.NewServer(network, "127.0.0.1:0")
	srv.Handle("echo", func(payload []byte) ([]byte, error) { return payload, nil })
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	cli := rpc.NewClient(network, 0)
	defer cli.Close()
	small, big := &blobMsg{b: make([]byte, 64)}, &blobMsg{b: make([]byte, bulkWriteSize)}
	call := func(m *blobMsg) func(int) error {
		return func(int) error { return cli.Call(srv.Addr(), "echo", m, &blobMsg{}) }
	}
	durs, err := p.timed("rpc.call_64b_us", 2000, call(small))
	if err != nil {
		return err
	}
	p.out["rpc.call_64b_us"] = percentile(durs, 50) * usPerNs
	p.out["rpc.call_64b_p99_us"] = percentile(durs, 99) * usPerNs
	if err := p.med("rpc.call_4mib_ms", msPerNs, 16, call(big)); err != nil {
		return err
	}
	p.out["rpc.call_allocs"] = testing.AllocsPerRun(200, func() { _ = call(small)(0) })
	return nil
}

func (p *prober) durable() error {
	rec := make([]byte, 128) // about the size of a version-manager journal record
	open := func(name string, fsync bool) (*durable.Log, error) {
		l, _, err := durable.Open(filepath.Join(p.dir, name), durable.Options{Fsync: fsync})
		return l, err
	}
	l, err := open("wal-fsync", true)
	if err != nil {
		return err
	}
	defer l.Close()
	if err := p.med("durable.append_fsync_us", usPerNs, 150, func(int) error { return l.Append(rec) }); err != nil {
		return err
	}

	// Two concurrent appenders: what group commit saves is the gap between
	// this and the single-appender figure, and syncs per append below 1.
	before := l.Stats()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var durs []float64
	var firstErr error
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				start := time.Now()
				err := l.Append(rec)
				end := time.Now()
				p.spans.add("durable.append_fsync_2x_us", 0, start, end)
				mu.Lock()
				durs = append(durs, float64(end.Sub(start).Nanoseconds()))
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	after := l.Stats()
	p.out["durable.append_fsync_2x_us"] = percentile(sorted(durs), 50) * usPerNs
	p.out["durable.syncs_per_append_2x"] = ratio(float64(after.Syncs-before.Syncs), float64(after.Appends-before.Appends))

	nl, err := open("wal-nofsync", false)
	if err != nil {
		return err
	}
	defer nl.Close()
	if err := p.med("durable.append_nofsync_us", usPerNs, 2000, func(int) error { return nl.Append(rec) }); err != nil {
		return err
	}

	rl, err := open("wal-replay", false)
	if err != nil {
		return err
	}
	batch := make([][]byte, 100)
	for i := range batch {
		batch[i] = rec
	}
	for i := 0; i < 100; i++ {
		if err := rl.AppendBatch(batch); err != nil {
			rl.Close()
			return err
		}
	}
	if err := rl.Close(); err != nil {
		return err
	}
	return p.med("durable.replay_10k_ms", msPerNs, 3, func(int) error {
		l, r, err := durable.Open(filepath.Join(p.dir, "wal-replay"), durable.Options{})
		if err != nil {
			return err
		}
		if len(r.Records) != 10000 {
			l.Close()
			return fmt.Errorf("replayed %d records, want 10000", len(r.Records))
		}
		return l.Close()
	})
}

func (p *prober) chunk() error {
	data := make([]byte, bulkChunk)
	p.e.pat.fill(data, 0, 0)
	key := func(i int) chunk.Key { return chunk.Key{Blob: 1, Version: 1, Index: uint64(i)} }
	ds, err := chunk.NewDiskStore(filepath.Join(p.dir, "chunks"), false)
	if err != nil {
		return err
	}
	defer ds.Close()
	const n = 256
	if err := p.med("chunk.disk_put_64k_us", usPerNs, n, func(i int) error { return ds.Put(key(i), data) }); err != nil {
		return err
	}
	if err := p.med("chunk.disk_get_64k_us", usPerNs, n, func(i int) error { _, err := ds.Get(key(i)); return err }); err != nil {
		return err
	}
	if err := p.med("chunk.disk_getrange_4k_us", usPerNs, n, func(i int) error {
		_, err := ds.GetRange(key(i), 8*kib, 4*kib)
		return err
	}); err != nil {
		return err
	}
	ms := chunk.NewMemStore()
	if err := p.med("chunk.mem_put_64k_us", usPerNs, n, func(i int) error { return ms.Put(key(i), data) }); err != nil {
		return err
	}
	var sink chunk.Digest
	err = p.med("chunk.digest_64k_us", usPerNs, n, func(int) error { sink = chunk.DigestOf(data); return nil })
	_ = sink
	return err
}

func (p *prober) dht() error {
	ring := dht.NewRing(0)
	for _, a := range p.e.dep.addrs(roleMeta) {
		ring.Add(a)
	}
	// One span per thousand lookups: reading the clock costs as much as a
	// lookup does.
	const batch = 1000
	var sink string
	durs, err := p.timed("dht.lookup_ns", 100, func(i int) error {
		for j := 0; j < batch; j++ {
			sink = ring.Lookup(dht.HashKey(1, 7, uint64(i*batch+j), 1))
		}
		return nil
	})
	_ = sink
	if err != nil {
		return err
	}
	p.out["dht.lookup_ns"] = percentile(durs, 50) / batch
	return nil
}

func (p *prober) core() error {
	var err error
	if p.cli, err = p.e.newClient("bench-probe", 0); err != nil {
		return err
	}
	if p.blob, err = p.cli.CreateBlob(bulkChunk, 2); err != nil {
		return err
	}
	wbuf := make([]byte, bulkWriteSize)
	if err := p.med("core.write_4mib_ms", msPerNs, 8, func(i int) error {
		off := uint64(i) * bulkWriteSize
		p.e.pat.fill(wbuf, off, 0)
		v, err := p.blob.Write(wbuf, off)
		p.version = v
		return err
	}); err != nil {
		return err
	}
	rbuf := make([]byte, bulkReadSize)
	if err := p.med("core.read_16mib_ms", msPerNs, 6, func(i int) error {
		off := uint64(i%2) * bulkReadSize
		if _, err := p.blob.Read(p.version, rbuf, off); err != nil {
			return err
		}
		if !p.e.pat.verify(rbuf, off, 0) {
			return errWrongBytes
		}
		return nil
	}); err != nil {
		return err
	}
	small := make([]byte, pointReadSize)
	if err := p.med("core.read_4k_ms", msPerNs, 256, func(int) error {
		off := uint64(p.rng.Intn(8*bulkWriteSize/pointReadSize)) * pointReadSize
		if _, err := p.blob.Read(p.version, small, off); err != nil {
			return err
		}
		if !p.e.pat.verify(small, off, 0) {
			return errWrongBytes
		}
		return nil
	}); err != nil {
		return err
	}
	ab, err := p.cli.CreateBlob(appendChunk, 1)
	if err != nil {
		return err
	}
	abuf := make([]byte, appendChunk)
	if err := p.med("core.append_64k_ms", msPerNs, 64, func(int) error {
		_, _, err := ab.Append(abuf)
		return err
	}); err != nil {
		return err
	}
	// Client assembly: the part of an op during which no RPC of its own was
	// outstanding (digesting, weaving, copying into the caller's buffer).
	self := selfTimesByName(p.spans.snapshot())
	p.out["core.write_self_ms"] = medianNs(self["core.write_4mib_ms"]) * msPerNs
	p.out["core.read_self_ms"] = medianNs(self["core.read_16mib_ms"]) * msPerNs
	return nil
}

func medianNs(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return percentile(sorted(fs), 50)
}

func (p *prober) meta() error {
	rc := rpc.NewClient(rpc.NewTCPNetwork(), 0)
	defer rc.Close()
	rc.SetObserver(p.obs)
	metas := p.e.dep.addrs(roleMeta)
	const chunks = 8 * bulkWriteSize / bulkChunk // the probe blob, in chunks
	cold := meta.NewClient(rc, metas, 1, 0)
	before := cold.RPCStats()
	const coldN = 8
	if err := p.med("meta.collect_cold_256_ms", msPerNs, coldN, func(i int) error {
		a := uint64(i%2) * 256
		refs, err := meta.CollectLeaves(cold, p.blob.ID(), p.version, chunks, a, a+256)
		if err == nil && len(refs) != 256 {
			err = fmt.Errorf("collected %d leaves, want 256", len(refs))
		}
		return err
	}); err != nil {
		return err
	}
	after := cold.RPCStats()
	p.out["meta.collect_cold_256_rpcs"] = float64(after.GetRPCs+after.GetNodesRPCs-before.GetRPCs-before.GetNodesRPCs) / coldN

	warm := meta.NewClient(rc, metas, 1, appendCacheNodes)
	if _, err := meta.CollectLeaves(warm, p.blob.ID(), p.version, chunks, 0, 256); err != nil {
		return err
	}
	if err := p.med("meta.collect_warm_256_us", usPerNs, 32, func(int) error {
		_, err := meta.CollectLeaves(warm, p.blob.ID(), p.version, chunks, 0, 256)
		return err
	}); err != nil {
		return err
	}

	// A 64-leaf write into a fresh blob: what bulk_write weaves and stores
	// for its first extent.
	leaves := make([]meta.ChunkRef, 64)
	for i := range leaves {
		leaves[i] = meta.ChunkRef{Providers: p.e.dep.addrs(roleProv)[:2],
			Key: chunk.Key{Blob: fakeBlobMeta, Version: 1, Index: uint64(i)}, Length: bulkChunk}
	}
	input := func(i int) meta.WeaveInput {
		return meta.WeaveInput{Blob: fakeBlobMeta + uint64(i), Version: 1, EndChunk: 64, SizeChunks: 64, Leaves: leaves}
	}
	if err := p.med("meta.weave_64leaf_us", usPerNs, 64, func(i int) error {
		_, _, err := meta.Weave(cold, input(0))
		return err
	}); err != nil {
		return err
	}
	return p.med("meta.putnodes_64leaf_ms", msPerNs, 8, func(i int) error {
		nodes, _, err := meta.Weave(cold, input(i))
		if err != nil {
			return err
		}
		return cold.PutNodes(nodes)
	})
}

func (p *prober) provider() error {
	rc := rpc.NewClient(rpc.NewTCPNetwork(), 0)
	defer rc.Close()
	rc.SetObserver(p.obs)
	addr := p.e.dep.addrs(roleProv)[0]
	data := make([]byte, 64*bulkChunk)
	p.e.pat.fill(data, 0, 0)
	key := func(iter, i int) chunk.Key {
		return chunk.Key{Blob: fakeBlobProvider, Version: uint64(iter), Index: uint64(i)}
	}
	const puts = 8
	if err := p.med("provider.putchunks_64x64k_ms", msPerNs, puts, func(iter int) error {
		items := make([]provider.PutItem, 64)
		for i := range items {
			items[i] = provider.PutItem{Key: key(iter, i), Data: data[i*bulkChunk : (i+1)*bulkChunk]}
		}
		errs, err := provider.PutChunks(rc, addr, items)
		for _, e := range errs {
			if err == nil {
				err = e
			}
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.med("provider.get_64k_us", usPerNs, 128, func(i int) error {
		b, err := provider.GetChunk(rc, addr, key(i%puts, i%64))
		if err == nil && len(b) != bulkChunk {
			err = fmt.Errorf("got %d bytes", len(b))
		}
		return err
	}); err != nil {
		return err
	}
	return p.med("provider.get_4k_range_us", usPerNs, 128, func(i int) error {
		b, err := provider.GetChunkRange(rc, addr, key(i%puts, i%64), 8*kib, 4*kib)
		if err == nil && len(b) != 4*kib {
			err = fmt.Errorf("got %d bytes", len(b))
		}
		return err
	})
}

func (p *prober) vmanager() error {
	rc := rpc.NewClient(rpc.NewTCPNetwork(), 0)
	defer rc.Close()
	rc.SetObserver(p.obs)
	vm := p.e.dep.vmAddr()
	// A blob of its own: the versions committed here carry no metadata and
	// are never read.
	var created vmanager.CreateResp
	if err := rc.Call(vm, vmanager.MethodCreate, &vmanager.CreateReq{ChunkSize: appendChunk, Replication: 1}, &created); err != nil {
		return err
	}
	id := created.BlobID
	if err := p.med("vmanager.assign_commit_ms", msPerNs, 32, func(int) error {
		var a vmanager.AssignResp
		if err := rc.Call(vm, vmanager.MethodAssign, &vmanager.AssignReq{BlobID: id, Size: appendChunk, Append: true}, &a); err != nil {
			return err
		}
		return rc.Call(vm, vmanager.MethodCommit, &vmanager.VersionRef{BlobID: id, Version: a.Version}, &vmanager.Ack{})
	}); err != nil {
		return err
	}
	if err := p.med("vmanager.latest_us", usPerNs, 256, func(int) error {
		return rc.Call(vm, vmanager.MethodLatest, &vmanager.BlobRef{BlobID: id}, &vmanager.LatestResp{})
	}); err != nil {
		return err
	}
	return p.med("vmanager.versioninfo_us", usPerNs, 256, func(i int) error {
		return rc.Call(vm, vmanager.MethodVersionInfo, &vmanager.VersionRef{BlobID: id, Version: uint64(1 + i%32)}, &vmanager.VersionInfoResp{})
	})
}

func (p *prober) pmanager() error {
	rc := rpc.NewClient(rpc.NewTCPNetwork(), 0)
	defer rc.Close()
	rc.SetObserver(p.obs)
	return p.med("pmanager.allocate_64x2_us", usPerNs, 256, func(int) error {
		var resp pmanager.AllocateResp
		err := rc.Call(p.e.dep.pmAddr(), pmanager.MethodAllocate, &pmanager.AllocateReq{NumChunks: 64, Replication: 2}, &resp)
		if err == nil && len(resp.Sets) != 64 {
			err = fmt.Errorf("allocator returned %d sets", len(resp.Sets))
		}
		return err
	})
}

// hopCost prints the ROADMAP's hop-cost table for one canonical op: per
// role and method the RPCs, wire bytes and server-side microseconds the op
// caused, then the client's wall and self time. It uses the probe blob.
func (p *prober) hopCost(title, span string, op func() error) error {
	before, err := p.e.dep.scrape()
	if err != nil {
		return err
	}
	durs, err := p.timed(span, 1, func(int) error { return op() })
	if err != nil {
		return err
	}
	after, err := p.e.dep.scrape()
	if err != nil {
		return err
	}
	rows := map[hopKey]*[4]float64{} // rpcs, bytes in, bytes out, seconds
	add := func(snap promSnapshot, sign float64) {
		for _, s := range snap {
			if s.labels["role"] == "" {
				continue
			}
			col := -1
			switch s.name {
			case "blobseer_rpc_server_request_seconds_count":
				col = 0
			case "blobseer_rpc_server_bytes_in_total":
				col = 1
			case "blobseer_rpc_server_bytes_out_total":
				col = 2
			case "blobseer_rpc_server_request_seconds_sum":
				col = 3
			}
			if col < 0 {
				continue
			}
			k := hopKey{s.labels["role"], s.labels["method"]}
			if rows[k] == nil {
				rows[k] = &[4]float64{}
			}
			rows[k][col] += sign * s.value
		}
	}
	add(after, 1)
	add(before, -1)
	fmt.Printf("hop cost: %s\n", title)
	fmt.Printf("  %-10s %-22s %6s %12s %12s %12s\n", "layer", "method", "rpcs", "bytes_in", "bytes_out", "server_us")
	var total [4]float64
	for _, role := range []string{roleVM, rolePM, roleMeta, roleProv} {
		for _, m := range sortedMethods(rows, role) {
			v := rows[hopKey{role, m}]
			if v[0] == 0 {
				continue
			}
			fmt.Printf("  %-10s %-22s %6.0f %12.0f %12.0f %12.0f\n", role, m, v[0], v[1], v[2], v[3]*1e6)
			for i := range total {
				total[i] += v[i]
			}
		}
	}
	fmt.Printf("  %-10s %-22s %6.0f %12.0f %12.0f %12.0f\n", "all", "", total[0], total[1], total[2], total[3]*1e6)
	for _, role := range []string{roleVM, roleMeta} {
		by := map[string]string{"daemon_role": role}
		fmt.Printf("  %-10s wal appends %.0f, fsyncs %.0f\n", role,
			after.sum("blobseer_wal_appends_total", by)-before.sum("blobseer_wal_appends_total", by),
			after.sum("blobseer_wal_syncs_total", by)-before.sum("blobseer_wal_syncs_total", by))
	}
	self := selfTimesByName(p.spans.snapshot()) // span names of hop ops are used once
	fmt.Printf("  %-10s wall %.0f us, self (no RPC outstanding) %.0f us\n", roleClient, durs[0]*usPerNs, medianNs(self[span])*usPerNs)
	return nil
}

type hopKey struct{ role, method string }

func sortedMethods(rows map[hopKey]*[4]float64, role string) []string {
	var out []string
	for k := range rows {
		if k.role == role {
			out = append(out, k.method)
		}
	}
	sort.Strings(out)
	return out
}

func newProber(e *env, spans *spanRecorder, obs *rpcSpanObserver) (*prober, error) {
	dir := filepath.Join(e.dep.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &prober{e: e, spans: spans, obs: obs, dir: dir, out: map[string]float64{},
		rng: opRand(e.seed, "probes", 0, 0)}, nil
}
