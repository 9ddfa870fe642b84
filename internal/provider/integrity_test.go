package provider_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// A copy that rots at rest must never be served: the provider's own
// pre-send verification catches it, returns the typed error, quarantines
// the copy, and keeps refusing it (without re-reading) until repair
// deletes it.
func TestGetQuarantinesCorruptCopy(t *testing.T) {
	store := chunk.NewMemStore()
	_, srv, cli := startProvider(t, store)
	key := chunk.Key{Blob: 1, Version: 1<<63 | 1, Index: 0}
	data := []byte("pristine chunk payload")
	if err := putOne(cli, "dp", key, data); err != nil {
		t.Fatal(err)
	}
	if err := store.Corrupt(key, 3); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // second get hits the quarantine short-circuit
		_, err := provider.GetChunk(cli, "dp", key)
		if !provider.IsCorrupt(err) {
			t.Fatalf("get %d of rotted chunk: err = %v, want ErrChunkCorrupt", i, err)
		}
	}
	st := srv.Counters()
	if st[provider.Corrupt] != 1 || st[provider.Quarantined] != 1 {
		t.Errorf("corrupt=%d quarantined=%d, want 1/1 (counted once at quarantine)", st[provider.Corrupt], st[provider.Quarantined])
	}

	// Ranged reads refuse the quarantined copy too — a slice of rot is
	// still rot, even if the flipped byte is outside the range.
	if _, err := provider.GetChunkRange(cli, "dp", key, 8, 4); !provider.IsCorrupt(err) {
		t.Errorf("ranged get of quarantined chunk: err = %v, want ErrChunkCorrupt", err)
	}

	// The quarantine is what repair consumes, and deletion clears it.
	keys, err := provider.CorruptList(context.Background(), cli, "dp")
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("CorruptList = %v, %v; want [%s]", keys, err, key)
	}
	if _, err := provider.DeleteChunks(context.Background(), cli, "dp", []chunk.Key{key}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Counters(); st[provider.Quarantined] != 0 {
		t.Errorf("quarantined = %d after delete, want 0", st[provider.Quarantined])
	}
}

// A put whose bytes no longer match the writer's digest (corruption in
// transit) must be rejected at ingest, not persisted.
func TestIngestRejectsCorruptPut(t *testing.T) {
	store := chunk.NewMemStore()
	_, _, cli := startProvider(t, store)
	key := chunk.Key{Blob: 2, Version: 1<<63 | 2, Index: 0}
	data := []byte("payload that will be framed wrong")
	bad := chunk.DigestOf([]byte("different bytes"))

	errs, err := provider.PutChunks(cli, "dp", []provider.PutItem{{Key: key, Data: data, Digest: bad}})
	if err != nil {
		t.Fatal(err)
	}
	if err := errs[0]; !provider.IsCorrupt(err) {
		t.Fatalf("put with mismatched digest: err = %v, want ErrChunkCorrupt", err)
	}
	if store.Has(key) {
		t.Error("rejected put still persisted the chunk")
	}

	// The same bytes with the right digest (or none) store fine.
	if err := putOne(cli, "dp", key, data); err != nil {
		t.Fatal(err)
	}
}

// A chunk that predates digests (landed in the store without one) is
// served as-is and backfilled on its first clean read; rot after backfill
// is then caught like any other chunk's.
func TestLegacyChunkBackfilledOnRead(t *testing.T) {
	store := chunk.NewMemStore()
	_, srv, cli := startProvider(t, store)
	key := chunk.Key{Blob: 3, Version: 1<<63 | 3, Index: 0}
	data := []byte("legacy chunk, no digest on file")
	if err := store.Put(key, data); err != nil { // behind the server's back
		t.Fatal(err)
	}

	got, err := provider.GetChunk(cli, "dp", key)
	if err != nil || string(got) != string(data) {
		t.Fatalf("legacy get = %q, %v", got, err)
	}
	if st := srv.Counters(); st[provider.Backfilled] != 1 {
		t.Errorf("backfilled = %d, want 1", st[provider.Backfilled])
	}

	if err := store.Corrupt(key, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := provider.GetChunk(cli, "dp", key); !provider.IsCorrupt(err) {
		t.Errorf("post-backfill rot: err = %v, want ErrChunkCorrupt", err)
	}
}

// MethodVerify trusts only the provider's own re-read: a good copy stays
// good, a rotted one is quarantined by the recheck, a missing key reports
// not held.
func TestVerifyChunkRecheck(t *testing.T) {
	store := chunk.NewMemStore()
	_, _, cli := startProviderAt(t, store, "dp2")

	key := chunk.Key{Blob: 4, Version: 1<<63 | 4, Index: 0}
	data := []byte("verify me")
	if err := putOne(cli, "dp2", key, data); err != nil {
		t.Fatal(err)
	}
	v, err := provider.VerifyChunk(context.Background(), cli, "dp2", key)
	if err != nil || !v.Held || v.Corrupt {
		t.Fatalf("verify of clean chunk = %+v, %v", v, err)
	}
	if err := store.Corrupt(key, 1); err != nil {
		t.Fatal(err)
	}
	v, err = provider.VerifyChunk(context.Background(), cli, "dp2", key)
	if err != nil || !v.Held || !v.Corrupt {
		t.Fatalf("verify of rotted chunk = %+v, %v", v, err)
	}
	v, err = provider.VerifyChunk(context.Background(), cli, "dp2", chunk.Key{Blob: 99})
	if err != nil || v.Held {
		t.Fatalf("verify of missing chunk = %+v, %v", v, err)
	}
}

// startProviderAt is startProvider with a caller-chosen address, for
// tests that stand up more than one server against distinct stores.
func startProviderAt(t *testing.T, store chunk.Store, addr string) (*rpc.SimNetwork, *provider.Server, *rpc.Client) {
	t.Helper()
	network := rpc.NewSimNetwork(nil)
	srv, err := provider.NewServer(network, addr, store, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli := rpc.NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	return network, srv, cli
}

// The scrub RPC walks the inventory in bounded slices: tiny budgets force
// one chunk per round trip, the cursor resumes exactly where the last
// slice stopped, and the totals cover every stored chunk exactly once.
// Quarantined copies are skipped (already counted when detected).
func TestScrubStepBudgetAndResume(t *testing.T) {
	store := chunk.NewMemStore()
	_, _, cli := startProvider(t, store)
	const n = 5
	payload := []byte("sixteen-byte-pay")
	for i := uint64(0); i < n; i++ {
		if err := putOne(cli, "dp", chunk.Key{Blob: 5, Version: 1<<63 | 5, Index: i}, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Corrupt(chunk.Key{Blob: 5, Version: 1<<63 | 5, Index: 2}, 0); err != nil {
		t.Fatal(err)
	}

	var cursor chunk.Key
	resume := false
	var scanned, bytes, corrupt, slices uint64
	for {
		resp, err := provider.Scrub(context.Background(), cli, "dp", cursor, resume, 1) // 1-byte budget: one chunk per slice
		if err != nil {
			t.Fatal(err)
		}
		scanned += resp.Scanned
		bytes += resp.Bytes
		corrupt += resp.Corrupt
		slices++
		if resp.Done {
			break
		}
		cursor, resume = resp.NextCursor, true
		if slices > 2*n {
			t.Fatal("scrub cursor not advancing")
		}
	}
	if scanned != n || corrupt != 1 || bytes != uint64(len(payload))*(n-1) {
		t.Errorf("scanned=%d corrupt=%d bytes=%d, want %d/1/%d", scanned, corrupt, bytes, n, len(payload)*(n-1))
	}
	// Every clean chunk exhausts the 1-byte budget and ends its slice (the
	// corrupt chunk contributes no verified bytes, so it shares one).
	if slices < n-1 {
		t.Errorf("slices = %d, want >= %d (1-byte budget must bound each slice)", slices, n-1)
	}

	// A second pass is clean: the quarantined copy is skipped, not
	// re-counted, so corruption totals don't inflate pass over pass.
	resp, err := provider.Scrub(context.Background(), cli, "dp", chunk.Key{}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Done || resp.Corrupt != 0 || resp.Scanned != n-1 {
		t.Errorf("second pass = %+v, want done, 0 corrupt, %d scanned", resp, n-1)
	}
}

// Digest manifests survive restarts via the sidecar, and the boot
// cross-check quarantines a chunk whose file was truncated while the
// provider was down — before a single read can be served from it.
func TestSidecarDigestReplayAndTornFileBootCheck(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "chunks")
	sideDir := filepath.Join(dir, "side")
	network := rpc.NewSimNetwork(nil)

	store, err := chunk.NewDiskStore(storeDir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := provider.NewServer(network, "dp", store, provider.Options{SidecarDir: sideDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cli := rpc.NewClient(network, 5*time.Second)
	defer cli.Close()

	torn := chunk.Key{Blob: 6, Version: 1<<63 | 6, Index: 0}
	whole := chunk.Key{Blob: 6, Version: 1<<63 | 6, Index: 1}
	if err := putOne(cli, "dp", torn, []byte("this file will be truncated")); err != nil {
		t.Fatal(err)
	}
	if err := putOne(cli, "dp", whole, []byte("this file stays whole")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Truncate one chunk file behind the store's back (fs corruption /
	// external tampering — Put's atomic rename can't cause this).
	if err := os.Truncate(filepath.Join(storeDir, "6-9223372036854775814-0.chunk"), 4); err != nil {
		t.Fatal(err)
	}

	store2, err := chunk.NewDiskStore(storeDir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := provider.NewServer(network, "dp", store2, provider.Options{SidecarDir: sideDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if st := srv2.Counters(); st[provider.Quarantined] != 1 {
		t.Errorf("quarantined after boot = %d, want 1 (torn file caught before any read)", st[provider.Quarantined])
	}
	if _, err := provider.GetChunk(cli, "dp", torn); !provider.IsCorrupt(err) {
		t.Errorf("get of torn chunk: err = %v, want ErrChunkCorrupt", err)
	}
	// The intact chunk reads clean against its REPLAYED digest — no
	// backfill, proving the manifest came from the sidecar.
	got, err := provider.GetChunk(cli, "dp", whole)
	if err != nil || string(got) != "this file stays whole" {
		t.Fatalf("get of whole chunk = %q, %v", got, err)
	}
	if st := srv2.Counters(); st[provider.Backfilled] != 0 {
		t.Errorf("backfilled = %d after restart, want 0 (digests replayed, not re-minted)", st[provider.Backfilled])
	}
}

// FuzzDigestWireDecode throws corrupt bytes at every digest-bearing wire
// message's Decode. None may panic; a PutChunksReq that decodes cleanly
// must survive an encode→decode round trip with every item's key, digest
// and data unchanged (the wire layer cannot silently alter a digest).
func FuzzDigestWireDecode(f *testing.F) {
	put := &provider.PutChunksReq{Items: []provider.PutItem{{
		Key:    chunk.Key{Blob: 1, Version: 1 << 63, Index: 3},
		Data:   []byte("payload"),
		Digest: chunk.DigestOf([]byte("payload")),
	}}}
	f.Add(wire.Marshal(put))
	f.Add(wire.Marshal(&provider.GetResp{Found: true, Data: []byte("x"), Digest: chunk.DigestOf([]byte("x"))}))
	f.Add(wire.Marshal(&provider.ScrubResp{NextCursor: chunk.Key{Blob: 2}, Scanned: 9, Bytes: 512, Corrupt: 1}))
	f.Add(wire.Marshal(&provider.CorruptListResp{Keys: []chunk.Key{{Blob: 1, Index: 2}}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []wire.Message{
			&provider.PutChunksReq{}, &provider.GetResp{},
			&provider.GetChunksResp{}, &provider.ScrubReq{}, &provider.ScrubResp{},
			&provider.VerifyReq{}, &provider.VerifyResp{}, &provider.CorruptListResp{},
		} {
			d := wire.NewDecoder(data)
			m.Decode(d) // must not panic, whatever the bytes
		}
		var req provider.PutChunksReq
		d := wire.NewDecoder(data)
		req.Decode(d)
		if d.Err() != nil {
			return
		}
		var rt provider.PutChunksReq
		if err := wire.Unmarshal(wire.Marshal(&req), &rt); err != nil {
			t.Fatalf("re-decoding a cleanly decoded PutChunksReq: %v", err)
		}
		if len(rt.Items) != len(req.Items) {
			t.Fatalf("round trip changed the item count: %d -> %d", len(req.Items), len(rt.Items))
		}
		for i, it := range req.Items {
			got := rt.Items[i]
			if got.Key != it.Key || got.Digest != it.Digest || string(got.Data) != string(it.Data) {
				t.Fatalf("round trip changed item %d: %+v -> %+v", i, it, got)
			}
		}
	})
}

// Sanity: the typed corrupt error survives the RPC boundary as a string
// and is still recognized by IsCorrupt on the far side.
func TestIsCorruptAcrossWire(t *testing.T) {
	if provider.IsCorrupt(nil) {
		t.Error("IsCorrupt(nil) = true")
	}
	if !provider.IsCorrupt(provider.ErrChunkCorrupt) {
		t.Error("IsCorrupt(ErrChunkCorrupt) = false")
	}
	if !provider.IsCorrupt(errors.New(`rpc: remote: provider: chunk corrupt: 1/2/3`)) {
		t.Error("IsCorrupt missed a wire-flattened corrupt error")
	}
	if provider.IsCorrupt(errors.New("some other failure")) {
		t.Error("IsCorrupt matched an unrelated error")
	}
}
