//go:build !race

// The race detector makes sync.Pool drop pooled items at random, so the
// pooled send frames would count as fresh allocations; these budgets hold
// for the ordinary build only.

package provider_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/provider"
)

// allocated reports the bytes the whole process heap-allocated while f ran
// (client and server alike: both ends live in this process).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDataPathAllocationBudget bounds what moving chunk payloads over TCP
// loopback to a disk store allocates, client and server together, as a
// multiple of the payload. Chunk payloads are sent from the buffers they
// sit in (a pooled send frame holds only headers), and each frame is
// received into one buffer; decoding must not add another, and the
// provider reads chunk records into pooled buffers, so a read allocates
// little more than the client's receive buffer, and a putchunks little
// more than the provider's (its 2 MiB frame is past the pool's largest
// class). A read into the caller's buffer lands the payload there, so it
// allocates almost nothing per chunk, and so does a batched read whose
// payloads each land in their own buffer.
func TestDataPathAllocationBudget(t *testing.T) {
	const chunkSize = 64 << 10
	store, err := chunk.NewDiskStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	addr, cli := startTCPProvider(t, store, provider.Options{})

	t.Run("read 256x64KiB", func(t *testing.T) {
		key := chunk.Key{Blob: 1, Version: 1}
		if err := putOne(cli, addr, key, pattern(1, chunkSize)); err != nil {
			t.Fatal(err)
		}
		if _, err := provider.GetChunk(cli, addr, key); err != nil { // warm the pools
			t.Fatal(err)
		}
		const reads = 256
		var err error
		n := allocated(func() {
			for i := 0; i < reads && err == nil; i++ {
				_, err = provider.GetChunk(cli, addr, key)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(n) / float64(reads*chunkSize)
		t.Logf("read: %.2fx the payload allocated", ratio)
		if ratio > 1.5 {
			t.Fatalf("a %d x 64 KiB read allocated %.2fx its payload, budget 1.5x", reads, ratio)
		}
	})

	t.Run("read-into 256x64KiB", func(t *testing.T) {
		key := chunk.Key{Blob: 1, Version: 2}
		want := pattern(2, chunkSize)
		if err := putOne(cli, addr, key, want); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, chunkSize)
		readInto := func() error {
			_, err := provider.GetChunkInto(context.Background(), cli, addr, key, 0, 0, dst)
			return err
		}
		if err := readInto(); err != nil { // warm the pools
			t.Fatal(err)
		}
		const reads = 256
		var err error
		n := allocated(func() {
			for i := 0; i < reads && err == nil; i++ {
				err = readInto()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatal("read-into left bytes that are not the chunk's")
		}
		ratio := float64(n) / float64(reads*chunkSize)
		t.Logf("read-into: %.3fx the payload allocated", ratio)
		if ratio > 0.1 {
			t.Fatalf("a %d x 64 KiB read into one buffer allocated %.3fx its payload, budget 0.1x", reads, ratio)
		}
	})

	t.Run("batched read-into 16x16x64KiB", func(t *testing.T) {
		keys := make([]chunk.Key, 16)
		dst := make([][]byte, len(keys))
		for i := range keys {
			keys[i] = chunk.Key{Blob: 3, Version: 1, Index: uint64(i)}
			dst[i] = make([]byte, chunkSize)
			if err := putOne(cli, addr, keys[i], pattern(3+i, chunkSize)); err != nil {
				t.Fatal(err)
			}
		}
		readInto := func() error {
			got, err := provider.GetChunksInto(context.Background(), cli, addr, keys, dst)
			for i := 0; err == nil && i < len(got); i++ {
				err = got[i].Err
			}
			return err
		}
		if err := readInto(); err != nil { // warm the pools
			t.Fatal(err)
		}
		const batches = 16
		var err error
		n := allocated(func() {
			for i := 0; i < batches && err == nil; i++ {
				err = readInto()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if !bytes.Equal(dst[i], pattern(3+i, chunkSize)) {
				t.Fatalf("batched read-into left bytes that are not chunk %d's in its buffer", i)
			}
		}
		ratio := float64(n) / float64(batches*len(keys)*chunkSize)
		t.Logf("batched read-into: %.3fx the payload allocated", ratio)
		if ratio > 0.1 {
			t.Fatalf("%d getchunks of 16 x 64 KiB into the caller's buffers allocated %.3fx their payload, budget 0.1x", batches, ratio)
		}
	})

	t.Run("putchunks 32x64KiB", func(t *testing.T) {
		const batches, perBatch = 4, 32
		batch := make([][]provider.PutItem, batches+1)
		for b := range batch {
			batch[b] = make([]provider.PutItem, perBatch)
			for i := range batch[b] {
				data := pattern(b*perBatch+i, chunkSize)
				batch[b][i] = provider.PutItem{Key: chunk.Key{Blob: 2, Version: uint64(b + 1), Index: uint64(i)}, Data: data, Digest: chunk.DigestOf(data)}
			}
		}
		put := func(items []provider.PutItem) error {
			errs, err := provider.PutChunks(cli, addr, items)
			if err != nil {
				return err
			}
			for i, e := range errs {
				if e != nil {
					return fmt.Errorf("chunk %d: %w", i, e)
				}
			}
			return nil
		}
		if err := put(batch[batches]); err != nil { // warm the pools
			t.Fatal(err)
		}
		var err error
		n := allocated(func() {
			for b := 0; b < batches && err == nil; b++ {
				err = put(batch[b])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(n) / float64(batches*perBatch*chunkSize)
		t.Logf("putchunks: %.2fx the payload allocated", ratio)
		if ratio > 1.25 {
			t.Fatalf("a %d x 64 KiB putchunks allocated %.2fx its payload, budget 1.25x", perBatch, ratio)
		}
	})
}
