package provider_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/wire"
)

func startProvider(t *testing.T, store chunk.Store) (*rpc.SimNetwork, *provider.Server, *rpc.Client) {
	t.Helper()
	network := rpc.NewSimNetwork(nil)
	srv := provider.NewServer(network, "dp", store)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli := rpc.NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	return network, srv, cli
}

func TestPutGetHasStats(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	key := chunk.Key{Blob: 1, Version: 7, Index: 3}
	data := []byte("chunk-payload")

	if err := provider.PutChunk(context.Background(), cli, "dp", key, data); err != nil {
		t.Fatal(err)
	}
	got, err := provider.GetChunk(cli, "dp", key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get = %q, %v", got, err)
	}
	var has provider.HasResp
	if err := cli.Call("dp", provider.MethodHas, &provider.GetReq{Key: key}, &has); err != nil {
		t.Fatal(err)
	}
	if !has.Present {
		t.Error("Has = false for stored chunk")
	}
	stats, err := provider.Stats(context.Background(), cli, "dp")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 1 || stats.Bytes != uint64(len(data)) || stats.Puts != 1 || stats.Gets != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestGetMissingChunk(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	_, err := provider.GetChunk(cli, "dp", chunk.Key{Blob: 9})
	if !errors.Is(err, chunk.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDuplicatePutRejected(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	key := chunk.Key{Blob: 2}
	if err := provider.PutChunk(context.Background(), cli, "dp", key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := provider.PutChunk(context.Background(), cli, "dp", key, []byte("b"))
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("duplicate put: %v, want remote error", err)
	}
}

func TestGetChunkReplicasFailover(t *testing.T) {
	network := rpc.NewSimNetwork(nil)
	good := provider.NewServer(network, "good", chunk.NewMemStore())
	if err := good.Start(); err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	cli := rpc.NewClient(network, time.Second)
	defer cli.Close()

	key := chunk.Key{Blob: 3}
	if err := provider.PutChunk(context.Background(), cli, "good", key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// First replica does not exist at all; second has the chunk.
	data, from, err := provider.GetChunkReplicas(context.Background(), cli, []string{"dead", "good"}, key)
	if err != nil || from != "good" || string(data) != "x" {
		t.Fatalf("failover = %q from %q, %v", data, from, err)
	}
	// All replicas dead.
	if _, _, err := provider.GetChunkReplicas(context.Background(), cli, []string{"dead1", "dead2"}, key); err == nil {
		t.Fatal("all-dead replicas succeeded")
	}
	// Empty replica set.
	if _, _, err := provider.GetChunkReplicas(context.Background(), cli, nil, key); err == nil {
		t.Fatal("empty replica set succeeded")
	}
}

func TestHeartbeatMessageRoundTrip(t *testing.T) {
	hb := &provider.HeartbeatReq{Addr: "dp7", Chunks: 42, Bytes: 1 << 20}
	var got provider.HeartbeatReq
	if err := wire.Unmarshal(wire.Marshal(hb), &got); err != nil {
		t.Fatal(err)
	}
	if got != *hb {
		t.Errorf("roundtrip = %+v", got)
	}
}

func TestServerSurvivesLargeChunk(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	key := chunk.Key{Blob: 5}
	if err := provider.PutChunk(context.Background(), cli, "dp", key, big); err != nil {
		t.Fatal(err)
	}
	got, err := provider.GetChunk(cli, "dp", key)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large chunk mismatch (%d bytes), %v", len(got), err)
	}
}

func TestTombstoneRejectsLatePuts(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	// A chunk stored before the tombstone stays readable (the delete
	// sweep, not the tombstone, removes inventory).
	old := chunk.Key{Blob: 4, Version: 1, Index: 0}
	if err := provider.PutChunk(context.Background(), cli, "dp", old, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := provider.Tombstone(context.Background(), cli, "dp", []uint64{4, 9}); err != nil {
		t.Fatal(err)
	}
	// Late phase-1 put for the deleted blob: rejected, nothing stored.
	err := provider.PutChunk(context.Background(), cli, "dp", chunk.Key{Blob: 4, Version: 2, Index: 0}, []byte("late"))
	if err == nil {
		t.Fatal("put for tombstoned blob succeeded")
	}
	var has provider.HasResp
	if err := cli.Call("dp", provider.MethodHas, &provider.GetReq{Key: chunk.Key{Blob: 4, Version: 2, Index: 0}}, &has); err != nil {
		t.Fatal(err)
	}
	if has.Present {
		t.Error("rejected chunk was stored anyway")
	}
	// Other blobs are unaffected.
	if err := provider.PutChunk(context.Background(), cli, "dp", chunk.Key{Blob: 5, Version: 1, Index: 0}, []byte("ok")); err != nil {
		t.Fatalf("put for live blob: %v", err)
	}
	if _, err := provider.GetChunk(cli, "dp", old); err != nil {
		t.Errorf("pre-tombstone chunk unreadable: %v", err)
	}
}

func TestTombstoneMessageRoundTrip(t *testing.T) {
	req := &provider.TombstonesReq{Blobs: []uint64{1, 2, 99}}
	var got provider.TombstonesReq
	if err := wire.Unmarshal(wire.Marshal(req), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Blobs) != 3 || got.Blobs[2] != 99 {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestPutChunksBatch stores several chunks in one RPC and checks the
// per-chunk accounting: one batch, N puts, payload bytes counted in.
func TestPutChunksBatch(t *testing.T) {
	_, srv, cli := startProvider(t, chunk.NewMemStore())
	items := []provider.PutItem{
		{Key: chunk.Key{Blob: 1, Version: 5, Index: 0}, Data: []byte("aaaa")},
		{Key: chunk.Key{Blob: 1, Version: 5, Index: 1}, Data: []byte("bbbbbb")},
		{Key: chunk.Key{Blob: 1, Version: 5, Index: 2}, Data: []byte("cc")},
	}
	errs, err := provider.PutChunks(cli, "dp", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("chunk %d rejected: %v", i, e)
		}
	}
	for _, it := range items {
		got, err := provider.GetChunk(cli, "dp", it.Key)
		if err != nil || !bytes.Equal(got, it.Data) {
			t.Fatalf("get %s = %q, %v", it.Key, got, err)
		}
	}
	stats, err := provider.Stats(context.Background(), cli, "dp")
	if err != nil {
		t.Fatal(err)
	}
	if stats.PutBatches != 1 || stats.Puts != 3 {
		t.Errorf("PutBatches=%d Puts=%d, want 1/3", stats.PutBatches, stats.Puts)
	}
	if want := uint64(4 + 6 + 2); stats.BytesIn != want {
		t.Errorf("BytesIn=%d, want %d", stats.BytesIn, want)
	}
	_ = srv
}

// TestPutChunksPerChunkErrorIsolation sends a batch where one chunk
// belongs to a tombstoned (deleted) blob: that chunk alone must be
// rejected while its batch-mates are stored.
func TestPutChunksPerChunkErrorIsolation(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	if err := provider.Tombstone(context.Background(), cli, "dp", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	items := []provider.PutItem{
		{Key: chunk.Key{Blob: 1, Version: 2, Index: 0}, Data: []byte("live-a")},
		{Key: chunk.Key{Blob: 7, Version: 2, Index: 1}, Data: []byte("dead")},
		{Key: chunk.Key{Blob: 1, Version: 2, Index: 2}, Data: []byte("live-b")},
	}
	errs, err := provider.PutChunks(cli, "dp", items)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("live chunks rejected: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("tombstoned chunk accepted")
	}
	if got, err := provider.GetChunk(cli, "dp", items[0].Key); err != nil || !bytes.Equal(got, items[0].Data) {
		t.Fatalf("live chunk lost: %q, %v", got, err)
	}
	if _, err := provider.GetChunk(cli, "dp", items[1].Key); err == nil {
		t.Fatal("tombstoned chunk stored")
	}
}
