package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// writeJob is one chunk to upload: its index and fully merged content.
type writeJob struct {
	idx  uint64
	data []byte
	// digest is the chunk's content digest, computed once per upload (after
	// any read-modify-write merge mutates data) and sent with every replica
	// put so providers can reject bytes that were damaged in transit.
	digest chunk.Digest
}

// Write stores p at byte offset off, producing and returning a new version.
// The write may extend the blob; ranges between the old end and off (for
// sparse writes) read back as zeros. Unaligned boundaries are supported
// via read-modify-write of the boundary chunks, which serializes against
// the immediately preceding version; chunk-aligned writes never wait for
// any other writer.
func (b *Blob) Write(p []byte, off uint64) (uint64, error) {
	return b.WriteCtx(context.Background(), p, off)
}

// WriteCtx is Write carrying the caller's context. With a tracer (or a
// trace already on the context) the whole write — uploads, assign,
// weave, metadata puts, commit — records as one span tree.
func (b *Blob) WriteCtx(ctx context.Context, p []byte, off uint64) (_ uint64, err error) {
	ctx, op := b.c.cfg.Tracer.StartOp(ctx, "core.write")
	defer func() {
		op.SetBytes(int64(len(p)))
		op.Finish(err)
	}()
	if len(p) == 0 {
		return 0, errors.New("core: empty write")
	}
	cs := b.chunkSize
	end := off + uint64(len(p))
	startChunk, endChunk := off/cs, (end+cs-1)/cs
	writeID := nextWriteID()

	// Phase 1 (pre-assign, fully parallel with all other writers): upload
	// every chunk whose content is entirely determined by p. The jobs
	// slice p directly — aligned uploads are zero-copy all the way into
	// the batched request encoding.
	var full []writeJob
	for i := startChunk; i < endChunk; i++ {
		lo, hi := i*cs, (i+1)*cs
		if lo >= off && hi <= end {
			full = append(full, writeJob{idx: i, data: p[lo-off : hi-off]})
		}
	}
	stored := make(map[uint64][]string, endChunk-startChunk)
	if len(full) > 0 {
		sets, err := b.c.allocate(ctx, len(full), b.replication, nil)
		if err != nil {
			return 0, err
		}
		if err := b.uploadChunks(ctx, writeID, full, sets, stored); err != nil {
			return 0, err
		}
	}

	// Phase 2: obtain the version and the concurrency context.
	var assign vmanager.AssignResp
	err = b.c.vm.Call(ctx, vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: b.id, Offset: off, Size: uint64(len(p)),
			WantLeaseTTLMs: wantLeaseTTLMs(uint64(len(p)))}, &assign)
	if err != nil {
		return 0, fmt.Errorf("core: assign: %w", mapVMError(err))
	}
	return b.finishWrite(ctx, p, off, writeID, &assign, stored)
}

// Append adds p at the end of the blob, returning the new version and the
// byte offset the data landed at. Concurrent appenders receive disjoint
// contiguous ranges from the version manager and proceed in parallel.
func (b *Blob) Append(p []byte) (version, off uint64, err error) {
	return b.AppendCtx(context.Background(), p)
}

// AppendCtx is Append carrying the caller's context (trace propagation;
// see WriteCtx).
func (b *Blob) AppendCtx(ctx context.Context, p []byte) (version, off uint64, err error) {
	ctx, op := b.c.cfg.Tracer.StartOp(ctx, "core.append")
	defer func() {
		op.SetBytes(int64(len(p)))
		op.Finish(err)
	}()
	if len(p) == 0 {
		return 0, 0, errors.New("core: empty append")
	}
	var assign vmanager.AssignResp
	err = b.c.vm.Call(ctx, vmanager.MethodAssign,
		&vmanager.AssignReq{BlobID: b.id, Size: uint64(len(p)), Append: true,
			WantLeaseTTLMs: wantLeaseTTLMs(uint64(len(p)))}, &assign)
	if err != nil {
		return 0, 0, fmt.Errorf("core: assign append: %w", mapVMError(err))
	}
	writeID := nextWriteID()
	v, err := b.finishWrite(ctx, p, assign.Offset, writeID, &assign, map[uint64][]string{})
	if err != nil {
		return 0, 0, err
	}
	return v, assign.Offset, nil
}

// finishWrite completes a write after version assignment: upload any
// not-yet-stored chunks (including boundary chunks needing merge), weave
// the metadata tree, and commit. stored maps chunk index -> replica set
// for chunks already uploaded in phase 1. On unrecoverable failure the
// version is abort-repaired so publication never wedges and the version
// chain stays fully readable.
func (b *Blob) finishWrite(ctx context.Context, p []byte, off, writeID uint64, assign *vmanager.AssignResp, stored map[uint64][]string) (uint64, error) {
	stopRenewal := b.startLeaseRenewal(ctx, assign)
	v, err := b.finishWriteInner(ctx, p, off, writeID, assign, stored)
	stopRenewal()
	if err != nil {
		if errors.Is(err, ErrLeaseExpired) {
			// The version manager already aborted this version and owns its
			// identity weave (expiry loop or GC sweep); repairing it again
			// here would only duplicate that work.
			return 0, err
		}
		b.abortRepair(ctx, assign)
		return 0, err
	}
	return v, nil
}

// wantLeaseTTLMs sizes the lease a write asks for at Assign to the bytes
// it is about to move: a bulk upload that would outlive the deployment's
// base TTL negotiates a longer one up front instead of leaning entirely on
// renewal heartbeats (which a long GC pause or a brief partition can drop
// just long enough to lose the lease). The estimate assumes a deliberately
// pessimistic 4 MB/s of sustained upload throughput; small writes ask for
// nothing and take the server's default, so the common path — and every
// existing test — is unchanged. The version manager clamps the request to
// its own policy ceiling, so a huge write cannot pin a version forever.
func wantLeaseTTLMs(sizeBytes uint64) uint64 {
	const bytesPerMs = 4 << 20 / 1000 // 4 MB/s floor
	if sizeBytes < 4<<20 {
		return 0
	}
	return sizeBytes / bytesPerMs
}

// startLeaseRenewal heartbeats the write lease granted at Assign so a
// slow-but-alive writer (large upload, boundary merge waiting on its
// predecessor) is not mistaken for a dead one. No-op when leases are
// disabled. The returned stop function is idempotent and waits for the
// heartbeat goroutine to exit, so no renewal races the commit/abort that
// follows it.
func (b *Blob) startLeaseRenewal(ctx context.Context, assign *vmanager.AssignResp) func() {
	if assign.LeaseTTLMs == 0 {
		return func() {}
	}
	// A third of the TTL survives two consecutive lost heartbeats.
	interval := time.Duration(assign.LeaseTTLMs) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				err := b.c.vm.Call(ctx, vmanager.MethodRenewLease,
					&vmanager.VersionRef{BlobID: b.id, Version: assign.Version}, &vmanager.Ack{})
				var remote *rpc.RemoteError
				if errors.As(err, &remote) {
					// Definitive refusal: lease already expired, version
					// finished, or blob deleted. The write's own commit (or
					// abort) surfaces the outcome; renewing is pointless.
					return
				}
				// Transport errors and timeouts: keep trying — the manager
				// may come back before the lease lapses, and a dropped
				// renewal must not silently give up the lease early.
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
}

// abortRepair handles a failed write: it weaves an *identity* metadata
// tree for the assigned version via meta.WeaveIdentity — the same engine
// the version manager's lease expiry loop and the GC sweeper run — then
// marks the version aborted at the version manager, reporting whether the
// weave landed. An abort reported unwoven becomes server-side debt: the
// GC sweep lists it via vm.unwoven and repairs it, so the repair no longer
// depends on the only client that noticed the failure staying alive. The
// repair's RPCs join the failed write's trace.
func (b *Blob) abortRepair(ctx context.Context, assign *vmanager.AssignResp) {
	// Publication must advance even if the repair itself fails, so the
	// abort is sent regardless (deferred) — a DROPPED abort wedges the
	// blob's publish frontier until the version's lease lapses (or, with
	// leases disabled, until the version manager next restarts), so a
	// first failed attempt hands off to a bounded background retry loop
	// rather than giving up — or stalling the failing Write for the
	// retries' duration. How hard the loop tries depends on WHY the abort
	// failed:
	//   - call timeout: the manager is alive but drowning (e.g. a retry
	//     storm) — the abort WILL land once the queue drains, and giving
	//     up instead is what wedges the blob, so keep retrying up to a
	//     generous deadline;
	//   - transport failure: the manager is down — its restart recovery
	//     aborts every in-flight write anyway, so a few quick retries
	//     (it may be mid-revival) are enough.
	woven := false
	abort := func() error {
		return b.c.vm.Call(ctx, vmanager.MethodAbort,
			&vmanager.AbortReq{BlobID: b.id, Version: assign.Version, Woven: woven}, &vmanager.Ack{})
	}
	defer func() {
		err := abort()
		var remote *rpc.RemoteError
		if err == nil || errors.As(err, &remote) {
			return // acked, or definitively refused (e.g. already finished)
		}
		go func() {
			deadline := time.Now().Add(60 * time.Second)
			backoff := 50 * time.Millisecond
			fastFails := 0
			if !errors.Is(err, rpc.ErrTimeout) {
				fastFails++
			}
			for {
				time.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
				err := abort()
				var remote *rpc.RemoteError
				if err == nil || errors.As(err, &remote) {
					return
				}
				if !errors.Is(err, rpc.ErrTimeout) {
					if fastFails++; fastFails >= 3 {
						return
					}
				}
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}()
	prev := assign.Version - 1
	// Repair reads the previous snapshot, so it serializes behind it; this
	// is a failure path, not the fast path. Once prev has published, every
	// version below ours has finished — exactly WeaveIdentity's
	// precondition — so the identity tree can reference the newest live
	// predecessor directly instead of the assign-time in-flight set, any
	// member of which may itself have aborted treeless by now (the
	// dangling-descriptor hazard the shared engine avoids).
	if prev > 0 {
		if err := b.waitPublished(ctx, prev); err != nil {
			return
		}
	}
	in := meta.IdentityInput{
		Blob:       b.id,
		Version:    assign.Version,
		StartChunk: assign.StartChunk,
		EndChunk:   assign.EndChunk,
		SizeChunks: assign.SizeChunks,
	}
	if prev > 0 {
		// Source leaves come from the newest NON-FAILED predecessor (failed
		// versions contributed no content and may lack trees; see
		// mergePrior). src == 0 means every predecessor failed: all-zero
		// leaves are the true content.
		src, vi, err := b.newestLiveVersion(ctx, prev)
		if err != nil {
			return
		}
		if src > 0 {
			in.SrcVersion, in.SrcSizeChunks = src, vi.SizeChunks
		}
	}
	if meta.WeaveIdentity(ctx, b.c.meta, in) == nil {
		woven = true
	}
}

func (b *Blob) finishWriteInner(ctx context.Context, p []byte, off, writeID uint64, assign *vmanager.AssignResp, stored map[uint64][]string) (uint64, error) {
	cs := b.chunkSize
	end := off + uint64(len(p))

	// Upload every chunk not handled in phase 1. Chunks fully covered by p
	// (the append path lands here with everything still pending) are
	// zero-copy slices of p; only boundary chunks — whose prior bytes may
	// need a read-modify-write against version assign.Version-1 —
	// allocate a merge buffer.
	var jobs []writeJob
	var rmwNeeded bool
	for i := assign.StartChunk; i < assign.EndChunk; i++ {
		if _, ok := stored[i]; ok {
			continue
		}
		chunkLo := i * cs
		length := assign.SizeBytes - chunkLo
		if length > cs {
			length = cs
		}
		srcLo, srcHi := maxU64(chunkLo, off), minU64(chunkLo+cs, end)
		if srcLo == chunkLo && srcHi == chunkLo+length {
			// Entirely determined by p: ship the caller's bytes directly.
			jobs = append(jobs, writeJob{idx: i, data: p[srcLo-off : srcHi-off]})
			continue
		}
		data := make([]byte, length)
		// Bytes from p.
		copy(data[srcLo-chunkLo:], p[srcLo-off:srcHi-off])
		// Prior bytes (before and/or after the written range) that fall
		// inside the previous version's extent must be merged.
		if chunkLo < assign.PrevSizeBytes && (srcLo > chunkLo || (srcHi < chunkLo+length && srcHi < assign.PrevSizeBytes)) {
			rmwNeeded = true
		}
		jobs = append(jobs, writeJob{idx: i, data: data})
	}

	if rmwNeeded {
		if err := b.mergePrior(ctx, jobs, off, end, assign); err != nil {
			return 0, err
		}
	}

	if len(jobs) > 0 {
		sets, err := b.c.allocate(ctx, len(jobs), b.replication, nil)
		if err != nil {
			return 0, err
		}
		if err := b.uploadChunks(ctx, writeID, jobs, sets, stored); err != nil {
			return 0, err
		}
	}

	// Weave and store the metadata tree.
	leaves := make([]meta.ChunkRef, assign.EndChunk-assign.StartChunk)
	for i := assign.StartChunk; i < assign.EndChunk; i++ {
		length := assign.SizeBytes - i*cs
		if length > cs {
			length = cs
		}
		leaves[i-assign.StartChunk] = meta.ChunkRef{
			Providers: stored[i],
			Key:       chunk.Key{Blob: b.id, Version: writeID, Index: i},
			Length:    uint32(length),
		}
	}
	nodes, _, err := meta.WeaveCtx(ctx, b.c.meta, meta.WeaveInput{
		Blob:          b.id,
		Version:       assign.Version,
		StartChunk:    assign.StartChunk,
		EndChunk:      assign.EndChunk,
		SizeChunks:    assign.SizeChunks,
		Leaves:        leaves,
		InFlight:      assign.InFlight,
		PubVersion:    assign.PubVersion,
		PubSizeChunks: assign.PubSizeChunks,
	})
	if err != nil {
		return 0, fmt.Errorf("core: weaving metadata for v%d: %w", assign.Version, err)
	}
	if err := b.c.meta.PutNodesCtx(ctx, nodes); err != nil {
		return 0, fmt.Errorf("core: storing metadata for v%d: %w", assign.Version, err)
	}

	// Commit: the version manager publishes in order.
	err = b.c.vm.Call(ctx, vmanager.MethodCommit,
		&vmanager.VersionRef{BlobID: b.id, Version: assign.Version}, &vmanager.Ack{})
	if err != nil {
		return 0, fmt.Errorf("core: commit v%d: %w", assign.Version, mapVMError(err))
	}
	return assign.Version, nil
}

// mergePrior overlays the previous version's bytes into the boundary
// chunks of an unaligned write. It waits for version-1 to publish — the
// one case where a writer serializes behind its predecessor — and reads
// the prior content of every affected chunk.
func (b *Blob) mergePrior(ctx context.Context, jobs []writeJob, off, end uint64, assign *vmanager.AssignResp) error {
	prev := assign.Version - 1
	if prev == 0 {
		return nil // nothing real to merge with; zeros are already in place
	}
	if err := b.waitPublished(ctx, prev); err != nil {
		return fmt.Errorf("core: waiting for v%d before merge: %w", prev, err)
	}
	// Failed predecessors contributed no content, so "content as of prev"
	// is the newest NON-FAILED version at or below prev. Abort repair
	// usually leaves failed versions with readable identity metadata, but
	// a repair can itself die with the control plane mid-crash; never
	// reading THROUGH a failed version keeps one unrepaired abort from
	// poisoning every later merge of the blob.
	var src, prior uint64
	if prev == assign.PubVersion {
		// Sequential writer: Assign already certified prev as the newest
		// non-failed published version, and with nothing assigned between
		// it and us, PrevSizeBytes is exactly its extent — no RPC needed.
		src, prior = prev, assign.PrevSizeBytes
	} else {
		s, srcInfo, err := b.newestLiveVersion(ctx, prev)
		if err != nil {
			return fmt.Errorf("core: resolving merge source below v%d: %w", prev, err)
		}
		if s == 0 {
			return nil // every predecessor aborted: zeros are the true content
		}
		// Bytes beyond the source's extent are zeros (either never
		// written, or written only by failed versions); the merge buffers
		// start zeroed.
		src, prior = s, minU64(assign.PrevSizeBytes, srcInfo.SizeBytes)
	}
	cs := b.chunkSize
	for j := range jobs {
		idx, data := jobs[j].idx, jobs[j].data
		chunkLo := idx * cs
		if chunkLo >= prior {
			continue
		}
		srcLo, srcHi := maxU64(chunkLo, off), minU64(chunkLo+cs, end)
		// Merge the head [chunkLo, srcLo) where it overlaps the prior
		// extent.
		if headEnd := minU64(srcLo, prior); headEnd > chunkLo {
			if err := b.readInto(ctx, src, data[:headEnd-chunkLo], chunkLo); err != nil {
				return fmt.Errorf("core: merge head of chunk %d: %w", idx, err)
			}
		}
		// Merge the tail [srcHi, chunkLo+len(data)) where it overlaps the
		// prior extent.
		tailEnd := minU64(chunkLo+uint64(len(data)), prior)
		if srcHi < tailEnd {
			if err := b.readInto(ctx, src, data[srcHi-chunkLo:tailEnd-chunkLo], srcHi); err != nil {
				return fmt.Errorf("core: merge tail of chunk %d: %w", idx, err)
			}
		}
	}
	return nil
}

// newestLiveVersion walks down from v to the newest non-failed version,
// returning (0, nil, nil) when every version at or below v failed. Used
// by the merge and repair paths, which need prior CONTENT: failed
// versions have none, and possibly no readable tree either.
func (b *Blob) newestLiveVersion(ctx context.Context, v uint64) (uint64, *vmanager.VersionInfoResp, error) {
	for ; v > 0; v-- {
		vi, err := b.versionInfo(ctx, v)
		if err != nil {
			return 0, nil, err
		}
		if !vi.Failed {
			return v, vi, nil
		}
	}
	return 0, nil, nil
}

// uploadChunks stores jobs[i] at replica set sets[i], recording each
// chunk's accepted providers into stored. RPCs are batched per provider:
// every chunk destined for the same address — across all jobs and replica
// ranks — travels in one provider.putchunks, so a W-chunk upload against
// M providers costs at most min(W×R, M-ish) round trips instead of W×R
// (the write-plane mirror of PutNodes's per-provider grouping).
//
// The durability contract is per chunk, unchanged from the singleton-put
// days: a chunk succeeds when at least one replica accepted it. Per-chunk
// errors inside a batch are isolated by the putchunks reply, and chunks
// that lose EVERY replica (e.g. their whole set crashed) get one fresh
// placement — excluding the providers that just failed them — before the
// write gives up.
func (b *Blob) uploadChunks(ctx context.Context, writeID uint64, jobs []writeJob, sets [][]string, stored map[uint64][]string) error {
	if len(jobs) == 0 {
		return nil
	}
	accepted := make([][]string, len(jobs))
	failedAt := make([][]string, len(jobs))
	// Digest once per chunk, not once per replica put: the same checksum
	// rides every copy (and any retry) of the chunk.
	for i := range jobs {
		jobs[i].digest = chunk.DigestOf(jobs[i].data)
	}
	var resMu sync.Mutex
	b.putGrouped(ctx, writeID, jobs, sets, accepted, failedAt, &resMu)

	// Collect chunks that lost every replica and the providers that
	// failed them (threaded into the retry allocation as an exclusion
	// set, so the fresh placement cannot re-select them).
	var retry []int
	var exclude []string
	seen := make(map[string]bool)
	for i := range jobs {
		if len(accepted[i]) > 0 {
			continue
		}
		retry = append(retry, i)
		for _, a := range failedAt[i] {
			if !seen[a] {
				seen[a] = true
				exclude = append(exclude, a)
			}
		}
	}
	if len(retry) > 0 {
		// The retry placement also steers clear of providers above the
		// fullness watermark: the first failure may well have been
		// capacity-related, and landing the retried chunks on near-full
		// disks would hand the repair plane immediate migration work. Best
		// effort — if the report is unavailable the plain exclusion set
		// stands, and the allocator's starvation safety (an exclusion that
		// would empty the pool is ignored) still applies.
		for _, addr := range b.c.fullProviders(ctx, b.c.cfg.FullnessWatermark) {
			if !seen[addr] {
				seen[addr] = true
				exclude = append(exclude, addr)
			}
		}
		key0 := chunk.Key{Blob: b.id, Version: writeID, Index: jobs[retry[0]].idx}
		fresh, err := b.c.allocate(ctx, len(retry), b.replication, exclude)
		if err != nil {
			return fmt.Errorf("core: chunk %s: all replicas failed and reallocation failed: %w", key0, err)
		}
		retryJobs := make([]writeJob, len(retry))
		for j, i := range retry {
			retryJobs[j] = jobs[i]
		}
		retryAccepted := make([][]string, len(retry))
		retryFailed := make([][]string, len(retry))
		b.putGrouped(ctx, writeID, retryJobs, fresh, retryAccepted, retryFailed, &resMu)
		for j, i := range retry {
			accepted[i] = retryAccepted[j]
			if len(accepted[i]) == 0 {
				return fmt.Errorf("core: chunk %s: no provider accepted the chunk",
					chunk.Key{Blob: b.id, Version: writeID, Index: jobs[i].idx})
			}
		}
	}
	for i := range jobs {
		stored[jobs[i].idx] = accepted[i]
	}
	return nil
}

// putBatchBytes bounds one putchunks request's payload. It keeps batches
// comfortably under the transport's frame limit (256 MiB over TCP) while
// still amortizing per-RPC costs across many chunks; a huge write simply
// costs a few RPCs per provider instead of one.
const putBatchBytes = 32 << 20

// putGrouped issues one provider.putchunks per destination address (all
// batches in parallel, bounded by the client's I/O semaphore; an address
// whose payload exceeds putBatchBytes gets several) and sorts each
// chunk's outcome into accepted[i] / failedAt[i]. A transport-level RPC
// failure fails every chunk of that batch at that address; per-chunk
// rejections from a responding provider fail only their own chunk.
func (b *Blob) putGrouped(ctx context.Context, writeID uint64, jobs []writeJob, sets [][]string, accepted, failedAt [][]string, resMu *sync.Mutex) {
	groups := make(map[string][]int)
	for i, set := range sets {
		for _, addr := range set {
			groups[addr] = append(groups[addr], i)
		}
	}
	// Deterministic order keeps retries and tests reproducible.
	addrs := make([]string, 0, len(groups))
	for a := range groups {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	type putBatch struct {
		addr string
		idxs []int
	}
	var batches []putBatch
	for _, addr := range addrs {
		cur := putBatch{addr: addr}
		payload := 0
		for _, i := range groups[addr] {
			if len(cur.idxs) > 0 && payload+len(jobs[i].data) > putBatchBytes {
				batches = append(batches, cur)
				cur = putBatch{addr: addr}
				payload = 0
			}
			cur.idxs = append(cur.idxs, i)
			payload += len(jobs[i].data)
		}
		batches = append(batches, cur)
	}
	// Group failures are per-chunk outcomes, not call failures, so the
	// parallel runner never sees an error and every batch always runs.
	_ = b.c.parallel(len(batches), func(gi int) error {
		addr, idxs := batches[gi].addr, batches[gi].idxs
		items := make([]provider.PutItem, len(idxs))
		for j, i := range idxs {
			items[j] = provider.PutItem{
				Key:    chunk.Key{Blob: b.id, Version: writeID, Index: jobs[i].idx},
				Data:   jobs[i].data,
				Digest: jobs[i].digest,
			}
		}
		start := time.Now()
		errs, rpcErr := provider.PutChunksCtx(ctx, b.c.rpc, addr, items)
		elapsed := time.Since(start)
		b.c.chunkPutBatches.Add(1)
		b.c.chunkPuts.Add(int64(len(items)))
		chunkErrs := make([]error, len(idxs))
		resMu.Lock()
		for j, i := range idxs {
			chunkErr := rpcErr
			if chunkErr == nil {
				chunkErr = errs[j]
			}
			chunkErrs[j] = chunkErr
			if chunkErr != nil {
				failedAt[i] = append(failedAt[i], addr)
				continue
			}
			b.c.chunkBytesOut.Add(int64(len(items[j].Data)))
			accepted[i] = append(accepted[i], addr)
		}
		resMu.Unlock()
		// Health samples stay per CHUNK, with the batch's duration
		// amortized across its items: a provider that rejects one chunk of a
		// 64-chunk batch (e.g. a tombstoned blob) is penalized for one sample
		// and credited for 63, just as 64 singleton puts scored it.
		perChunkMs := float64((elapsed / time.Duration(len(items))).Microseconds()) / 1000
		for j := range items {
			b.c.health.observe(addr, perChunkMs, chunkErrs[j] != nil)
		}
		return nil
	})
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
