package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/provider"
	"repro/internal/trace"
)

// Read fills p with the blob's content starting at byte offset off, taken
// from the given published version (0 = latest published). It returns the
// number of bytes read; like io.ReaderAt it returns io.EOF when fewer than
// len(p) bytes were available.
//
// Reads never synchronize with writers: the snapshot named by version is
// immutable, so the descent and the chunk fetches need no locks anywhere
// in the system (§I-B3 read/write concurrency).
func (b *Blob) Read(version uint64, p []byte, off uint64) (int, error) {
	return b.ReadCtx(context.Background(), version, p, off)
}

// ReadCtx is Read carrying the caller's context. When the client has a
// tracer (or the context already carries a trace), the whole read — the
// version resolve, every metadata descent round, every chunk fetch —
// records as one span tree under one trace id.
func (b *Blob) ReadCtx(ctx context.Context, version uint64, p []byte, off uint64) (n int, err error) {
	ctx, op := b.c.cfg.Tracer.StartOp(ctx, "core.read")
	defer func() {
		op.SetBytes(int64(n))
		finishIgnoringEOF(op, err)
	}()
	version, sizeBytes, sizeChunks, err := b.resolveVersion(ctx, version)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= sizeBytes {
		return 0, io.EOF
	}
	end := off + uint64(len(p))
	if end > sizeBytes {
		end = sizeBytes
	}
	if err := b.readRange(ctx, version, sizeChunks, p[:end-off], off); err != nil {
		// The version was readable when resolved, but a concurrent prune
		// may have reclaimed its tree or chunks mid-descent. Re-check so
		// racing readers get the clean typed error, never a confusing
		// not-found, and never silently torn data (the read fails whole).
		if vi, infoErr := b.versionInfo(ctx, version); infoErr == nil && vi.Reclaimed {
			return 0, fmt.Errorf("%w: blob %d version %d", ErrVersionReclaimed, b.id, version)
		} else if infoErr != nil && errors.Is(infoErr, ErrBlobDeleted) {
			return 0, infoErr
		}
		return 0, err
	}
	n = int(end - off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// readInto is Read without clamping diagnostics, used internally by the
// read-modify-write merge; the caller guarantees the range is in bounds.
// Unlike Read it accepts aborted versions: abort repair gives them valid
// identity metadata, and the merge needs "content as of v-1" regardless of
// whether v-1's own write succeeded.
func (b *Blob) readInto(ctx context.Context, version uint64, p []byte, off uint64) error {
	vi, err := b.versionInfo(ctx, version)
	if err != nil {
		return err
	}
	if !vi.Published {
		return fmt.Errorf("%w: blob %d version %d", ErrNotPublished, b.id, version)
	}
	return b.readRange(ctx, version, vi.SizeChunks, p, off)
}

// resolveVersion maps version 0 to the latest published version and
// validates that an explicit version is published and not aborted.
func (b *Blob) resolveVersion(ctx context.Context, version uint64) (v, sizeBytes, sizeChunks uint64, err error) {
	if version == 0 {
		var lv, size uint64
		lv, size, err = b.latest(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		if lv == 0 {
			return 0, 0, 0, nil // empty blob: reads see size 0
		}
		cs := b.chunkSize
		return lv, size, (size + cs - 1) / cs, nil
	}
	vi, err := b.versionInfo(ctx, version)
	if err != nil {
		return 0, 0, 0, err
	}
	if vi.Reclaimed {
		return 0, 0, 0, fmt.Errorf("%w: blob %d version %d", ErrVersionReclaimed, b.id, version)
	}
	if !vi.Published {
		return 0, 0, 0, fmt.Errorf("%w: blob %d version %d", ErrNotPublished, b.id, version)
	}
	if vi.Failed {
		return 0, 0, 0, fmt.Errorf("%w: blob %d version %d", ErrFailedVersion, b.id, version)
	}
	return version, vi.SizeBytes, vi.SizeChunks, nil
}

// readRange fetches [off, off+len(p)) of a published version into p.
// Chunks read whole are fetched in batches: one getchunks per replica
// set and batchReadBytes, sent to the set's healthiest replica. A chunk
// read in part (an unaligned edge, a point read) is fetched with one
// ranged get, and so is every chunk a batch did not deliver, failing over
// across its replicas (fetchChunk).
func (b *Blob) readRange(ctx context.Context, version, sizeChunks uint64, p []byte, off uint64) error {
	cs := b.chunkSize
	end := off + uint64(len(p))
	a, z := off/cs, (end+cs-1)/cs
	refs, leafKeys, err := meta.CollectLeavesWithKeys(ctx, b.c.meta, b.id, version, sizeChunks, a, z)
	if err != nil {
		return fmt.Errorf("core: metadata for read of blob %d v%d: %w", b.id, version, err)
	}
	var jobs []func() error
	var sets [][]*chunkRead // whole-chunk reads, one list per replica set
	for i, ref := range refs {
		chunkLo := (a + uint64(i)) * cs
		lo, hi := maxU64(chunkLo, off), minU64(chunkLo+cs, end)
		dst := p[lo-off : hi-off]
		// Only [inLo, validHi) of the chunk holds stored bytes for this
		// read; everything past the chunk's valid length reads as zeros
		// (sparse regions within a partially written chunk). Fetch only
		// the valid sub-range — a boundary read moves just the bytes it
		// needs — straight into dst, then zero-fill the tail.
		inLo := lo - chunkLo
		validHi := minU64(hi-chunkLo, uint64(ref.Length))
		if ref.IsZero() || validHi <= inLo {
			clear(dst)
			continue
		}
		r := &chunkRead{ref: ref, leaf: leafKeys[i], off: inLo, length: validHi - inLo, dst: dst}
		if inLo != 0 || validHi < uint64(ref.Length) {
			jobs = append(jobs, func() error { return b.fetchChunk(ctx, r) })
			continue
		}
		// Group by the set, in whatever order a descriptor lists it (the
		// order in which its replicas acknowledged the write), not by the
		// set's healthiest replica: the batches of a read stay a function
		// of placement, not of the moment's health scores.
		k := slices.IndexFunc(sets, func(s []*chunkRead) bool { return sameSet(s[0].ref.Providers, ref.Providers) })
		if k < 0 {
			k = len(sets)
			sets = append(sets, nil)
		}
		sets[k] = append(sets[k], r)
	}
	for _, reads := range sets {
		for len(reads) > 0 {
			n, payload := 1, uint64(reads[0].ref.Length)
			for n < len(reads) && payload+uint64(reads[n].ref.Length) <= batchReadBytes {
				payload += uint64(reads[n].ref.Length)
				n++
			}
			batch := reads[:n]
			reads = reads[n:]
			jobs = append(jobs, func() error { return b.fetchBatch(ctx, batch) })
		}
	}
	return b.c.parallel(len(jobs), func(j int) error { return jobs[j]() })
}

// batchReadBytes caps one getchunks of a read: the chunk bytes one reply
// carries, sixteen 64 KiB chunks. On 16 MiB reads over four providers,
// 512 KiB and 1 MiB caps cost the least CPU per read; 256 KiB pays for
// more round trips, and 4 MiB leaves too few replies in flight to overlap
// (a 4 MiB batch holds a provider's read buffers longer, too).
const batchReadBytes = 1 << 20

// chunkRead is one chunk's part in a read: bytes [off, off+length) of
// the chunk ref names, into dst, with the tree leaf that holds ref.
type chunkRead struct {
	ref         meta.ChunkRef
	leaf        meta.NodeKey
	off, length uint64
	dst         []byte
}

// sameSet reports whether two replica lists name the same providers.
func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// fetchBatch reads whole chunks of one replica set with one getchunks to
// the set's healthiest replica, straight into their buffers. A chunk the
// batch does not deliver — the call failed, the replica lacks it, flagged
// it corrupt, or its bytes failed the end-to-end digest check — is
// fetched on its own (fetchChunk), with failover.
func (b *Blob) fetchBatch(ctx context.Context, reads []*chunkRead) error {
	addr := b.c.health.order(reads[0].ref.Providers)[0]
	keys := make([]chunk.Key, len(reads))
	dst := make([][]byte, len(reads))
	for i, r := range reads {
		keys[i], dst[i] = r.ref.Key, r.dst
	}
	start := time.Now()
	got, err := provider.GetChunksInto(ctx, b.c.rpc, addr, keys, dst)
	b.c.health.observe(addr, float64(time.Since(start).Microseconds())/1000, err != nil)
	b.c.chunkGets.Add(1)
	for i, r := range reads {
		if err == nil && got[i].Err == nil {
			b.c.chunkBytesIn.Add(int64(got[i].N))
			clear(r.dst[got[i].N:])
			continue
		}
		if err == nil && provider.IsCorrupt(got[i].Err) {
			b.c.chunkCorrupt.Add(1)
		}
		if ferr := b.fetchChunk(ctx, r); ferr != nil {
			return ferr
		}
	}
	return nil
}

// fetchChunk reads one chunk's part into its buffer and zero-fills the
// rest of the buffer.
func (b *Blob) fetchChunk(ctx context.Context, r *chunkRead) error {
	n, err := b.fetchChunkRange(ctx, r.ref, r.off, r.length, r.dst)
	if err != nil {
		// Every replica in the descriptor failed. The one way that
		// happens with data still intact is a stale descriptor: the
		// repair engine re-homed the chunk (dead provider, rebalance
		// migration) and patched the leaf, but this client's cache —
		// immutable-node caching never invalidates — still serves the
		// pre-patch replica list. Refresh the leaf from the ring and
		// retry once with the patched provider order.
		fresh, refErr := b.c.meta.RefreshNode(ctx, r.leaf)
		if refErr != nil || !fresh.Leaf || fresh.Chunk.IsZero() ||
			slices.Equal(fresh.Chunk.Providers, r.ref.Providers) {
			return err
		}
		n, err = b.fetchChunkRange(ctx, fresh.Chunk, r.off, r.length, r.dst)
		if err != nil {
			return err
		}
	}
	clear(r.dst[n:])
	return nil
}

// fetchChunkRange reads bytes [off, off+length) of one chunk into dst,
// returning how many it wrote, trying replicas healthiest-first (the
// client-side QoS feedback of §IV-E: a degraded provider stops being the
// first choice after a few slow operations) and failing over on error. A
// full-chunk read is requested as the whole chunk (zero range), so the
// received bytes are checked against the chunk's digest end to end.
func (b *Blob) fetchChunkRange(ctx context.Context, ref meta.ChunkRef, off, length uint64, dst []byte) (int, error) {
	if off == 0 && length >= uint64(ref.Length) {
		off, length = 0, 0 // whole chunk
	}
	ordered := b.c.health.order(ref.Providers)
	var lastErr error
	for _, addr := range ordered {
		start := time.Now()
		n, err := provider.GetChunkInto(ctx, b.c.rpc, addr, ref.Key, off, length, dst)
		elapsed := time.Since(start)
		b.c.health.observe(addr, float64(elapsed.Microseconds())/1000, err != nil)
		b.c.chunkGets.Add(1)
		if err == nil {
			b.c.chunkBytesIn.Add(int64(n))
			return n, nil
		}
		if provider.IsCorrupt(err) {
			// The replica's bytes failed the end-to-end digest check (the
			// provider has been told to recheck its copy); the next replica
			// gets the read.
			b.c.chunkCorrupt.Add(1)
		}
		lastErr = err
	}
	return 0, fmt.Errorf("core: chunk %s unavailable on all %d replicas: %w",
		ref.Key, len(ref.Providers), lastErr)
}

// finishIgnoringEOF finishes an operation span without counting io.EOF
// as a failure: a short read reporting EOF moved real bytes and is a
// successful operation, not something the flight recorder should flag
// as errored.
func finishIgnoringEOF(op *trace.Active, err error) {
	if errors.Is(err, io.EOF) {
		err = nil
	}
	op.Finish(err)
}

// ChunkLocation reports where one chunk-aligned slice of a version lives;
// the locality information a MapReduce scheduler places tasks by (§IV-D).
type ChunkLocation struct {
	Offset    uint64 // byte offset within the blob
	Length    uint64 // valid bytes in this chunk
	Providers []string
}

// Locations returns the chunk locations overlapping [off, off+length) of
// the given version (0 = latest).
func (b *Blob) Locations(version, off, length uint64) ([]ChunkLocation, error) {
	ctx := context.Background()
	version, sizeBytes, sizeChunks, err := b.resolveVersion(ctx, version)
	if err != nil {
		return nil, err
	}
	if version == 0 || off >= sizeBytes || length == 0 {
		return nil, nil
	}
	end := off + length
	if end > sizeBytes {
		end = sizeBytes
	}
	cs := b.chunkSize
	a, z := off/cs, (end+cs-1)/cs
	refs, err := meta.CollectLeavesCtx(ctx, b.c.meta, b.id, version, sizeChunks, a, z)
	if err != nil {
		return nil, err
	}
	out := make([]ChunkLocation, len(refs))
	for i, ref := range refs {
		out[i] = ChunkLocation{
			Offset:    (a + uint64(i)) * cs,
			Length:    uint64(ref.Length),
			Providers: ref.Providers,
		}
	}
	return out, nil
}
