package provider_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// startSidecarProvider boots a provider with a durable sidecar over a
// disk chunk store and returns a restart function that simulates a crash
// + restart in place (same store dir, same sidecar dir, same address).
func startSidecarProvider(t *testing.T) (cli *rpc.Client, restart func()) {
	t.Helper()
	network := rpc.NewSimNetwork(nil)
	chunkDir := t.TempDir()
	sideDir := t.TempDir()
	opts := provider.Options{SidecarDir: sideDir}

	open := func() *provider.Server {
		store, err := chunk.NewDiskStore(chunkDir, false)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := provider.NewServer(network, "dp", store, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	t.Cleanup(func() { srv.Close() })
	cli = rpc.NewClient(network, 5*time.Second)
	t.Cleanup(cli.Close)
	return cli, func() {
		srv.Close()
		srv = open()
		// The client's cached connection died with the old instance; a
		// failed call drops it and the next one redials (at-most-once
		// semantics forbid silent auto-retry), so ping until reachable.
		for i := 0; ; i++ {
			if _, err := provider.Stats(context.Background(), cli, "dp"); err == nil {
				return
			} else if i >= 100 {
				t.Fatalf("provider unreachable after restart: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// Tombstones must survive a provider restart: the GC delete sweep counted
// this provider as visited when the tombstone RPC acked, so a late
// phase-1 put for the deleted blob must keep bouncing after a crash.
func TestSidecarTombstonesSurviveRestart(t *testing.T) {
	cli, restart := startSidecarProvider(t)

	if err := provider.Tombstone(context.Background(), cli, "dp", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	err := putOne(cli, "dp", chunk.Key{Blob: 7, Version: 1, Index: 0}, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("pre-restart put for tombstoned blob: err = %v, want rejection", err)
	}

	restart()

	err = putOne(cli, "dp", chunk.Key{Blob: 7, Version: 2, Index: 0}, []byte("y"))
	if err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("post-restart put for tombstoned blob: err = %v, want rejection (tombstone lost?)", err)
	}
	// Other blobs are unaffected.
	if err := putOne(cli, "dp", chunk.Key{Blob: 8, Version: 1, Index: 0}, []byte("z")); err != nil {
		t.Fatalf("put for live blob after restart: %v", err)
	}
}

// Put ages must survive a restart: before the sidecar, a restarted
// provider re-stamped every chunk "first seen now", handing each one a
// fresh orphan grace; with the sidecar the clock keeps running, so the
// orphan sweep can reclaim settled aborted-write leftovers immediately.
func TestSidecarPutAgesSurviveRestart(t *testing.T) {
	cli, restart := startSidecarProvider(t)

	key := chunk.Key{Blob: 1, Version: 9, Index: 4}
	if err := putOne(cli, "dp", key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	const aged = 150 * time.Millisecond
	time.Sleep(aged)

	restart()

	inv, err := provider.ListChunks(context.Background(), cli, "dp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Keys) != 1 || inv.Keys[0] != key {
		t.Fatalf("inventory after restart = %v", inv.Keys)
	}
	if got := time.Duration(inv.AgeMs[0]) * time.Millisecond; got < aged {
		t.Fatalf("chunk age after restart = %v, want >= %v (age clock reset by restart)", got, aged)
	}
}

// Deleted chunks must not resurrect their age entries on replay (the
// delete record in the sidecar removes them), keeping the replayed table
// bounded by the live inventory.
func TestSidecarDeleteDropsAgeEntries(t *testing.T) {
	cli, restart := startSidecarProvider(t)

	key := chunk.Key{Blob: 2, Version: 1, Index: 0}
	if err := putOne(cli, "dp", key, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if _, err := provider.DeleteChunks(context.Background(), cli, "dp", []chunk.Key{key}); err != nil {
		t.Fatal(err)
	}

	restart()

	inv, err := provider.ListChunks(context.Background(), cli, "dp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Keys) != 0 {
		t.Fatalf("deleted chunk resurfaced after restart: %v", inv.Keys)
	}
}

// The batched getchunks RPC: aligned outcomes, each chunk in its own
// buffer with its digest, an absent key as chunk.ErrNotFound, one batch
// accounted.
func TestGetChunksBatch(t *testing.T) {
	_, _, cli := startProvider(t, chunk.NewMemStore())
	k1 := chunk.Key{Blob: 1, Version: 1, Index: 0}
	k2 := chunk.Key{Blob: 1, Version: 1, Index: 1}
	missing := chunk.Key{Blob: 1, Version: 1, Index: 9}
	if err := putOne(cli, "dp", k1, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := putOne(cli, "dp", k2, []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	dst := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	got, err := provider.GetChunksInto(context.Background(), cli, "dp", []chunk.Key{k1, missing, k2}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil || got[2].Err != nil || !errors.Is(got[1].Err, chunk.ErrNotFound) {
		t.Fatalf("getchunks outcomes = %+v", got)
	}
	if string(dst[0][:got[0].N]) != "aa" || string(dst[2][:got[2].N]) != "bbb" {
		t.Fatalf("getchunks read %q and %q", dst[0][:got[0].N], dst[2][:got[2].N])
	}
	if !got[0].Digest.Verify([]byte("aa")) || !got[2].Digest.Verify([]byte("bbb")) || !got[1].Digest.IsZero() {
		t.Fatalf("getchunks digests = %+v", got)
	}
	st, err := provider.Stats(context.Background(), cli, "dp")
	if err != nil {
		t.Fatal(err)
	}
	if st[provider.GetBatches] != 1 {
		t.Errorf("GetBatches = %d, want 1", st[provider.GetBatches])
	}
}
