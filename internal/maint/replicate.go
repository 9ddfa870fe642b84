package maint

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/chunk"
	"repro/internal/meta"
	"repro/internal/pmanager"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// The replicate action: the self-healing control loop that keeps the data
// plane at its declared replication degree under provider churn and keeps
// the provider pool balanced as reclamation frees space unevenly.
//
// The write path replicates each chunk R ways at upload time, but nothing
// in the seed system ever repaired that degree: a dead provider's
// replicas stayed lost, every read kept probing the dead address first,
// and the blob was one more failure away from data loss. Replicate closes
// that loop with a scan → re-replicate → patch → rebalance pass:
//
//  1. Scan. The pass's leaf-tracking liveness walk (pass.liveSet) yields,
//     per blob, the chunk → replica-set placement map and, per chunk, the
//     exact leaf descriptors that reference it.
//  2. Detect. A replica on a provider that stopped heartbeating is dead,
//     a quarantined copy is lost; a chunk
//     short of its blob's replication degree is under-replicated.
//  3. Re-replicate. Surviving replicas are drained with the batched
//     provider.getchunks RPC and pushed onto fresh providers — chosen by
//     the capacity-aware allocator, excluding every provider the chunk
//     already touched — with batched provider.putchunks.
//  4. Patch. The affected leaves are rewritten in place through the
//     meta.patchreplicas RPC (journaled by PersistentStore), surviving
//     replicas first, so reads stop probing dead addresses.
//  5. Rebalance. Providers above the fullness high watermark are drained
//     toward the low watermark by migrating chunk replicas onto the
//     emptiest providers (copy → patch → delete; the delete only runs
//     when the patch fully landed, so no metadata replica can strand a
//     read on a deleted copy).

// batchBytes bounds one getchunks/putchunks payload and one repair wave's
// in-flight data, mirroring core's putBatchBytes: big enough to amortize
// per-RPC cost, far under the transport frame cap, and a ceiling on the
// engine's memory footprint.
const batchBytes = 32 << 20

// firstError keeps the first of a series of failures. Batched phases
// record through it and their caller counts the result once — per blob or
// phase, not per chunk — so one flaky RPC doesn't inflate RepairErrors by
// its batch size.
type firstError struct{ err error }

func (f *firstError) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// failRepair counts one per-blob (or rebalance) failure.
func (p *pass) failRepair(err error) {
	p.st[vmanager.RepairErrors]++
	p.keep(err)
}

// chunkPlace is one live chunk's placement record: its (post-repair)
// replica set and every leaf descriptor referencing it.
type chunkPlace struct {
	key       chunk.Key
	length    uint64
	providers []string
	leaves    []meta.NodeKey
}

// copyJob is one chunk's payload in transit between providers: drained by
// fetch, stored by push. Every batched transfer the action issues goes
// through the two, so the grouping and splitting rules live in one place.
type copyJob struct {
	place  *chunkPlace
	data   []byte
	digest chunk.Digest // source copy's digest, forwarded with the put
	landed []string     // destinations that hold the copy after push
	fresh  int          // how many of those copies push created
}

// batches partitions each address's jobs into consecutive groups whose
// summed size stays within batchBytes (a single oversized job gets a group
// of its own) and visits them in address order.
func batches(byAddr map[string][]*copyJob, size func(*copyJob) uint64, visit func(addr string, part []*copyJob)) {
	for _, addr := range slices.Sorted(maps.Keys(byAddr)) {
		var cur []*copyJob
		var payload uint64
		for _, j := range byAddr[addr] {
			sz := size(j)
			if len(cur) > 0 && payload+sz > batchBytes {
				visit(addr, cur)
				cur, payload = nil, 0
			}
			cur = append(cur, j)
			payload += sz
		}
		if len(cur) > 0 {
			visit(addr, cur)
		}
	}
}

// fetch drains each job's bytes from its source with batched getchunks,
// each into a buffer of its own sized from its placement. A job whose
// source lost the chunk, failed verification, or failed the whole batch
// keeps nil data.
func (p *pass) fetch(bySrc map[string][]*copyJob, errs *firstError) {
	batches(bySrc, func(j *copyJob) uint64 { return j.place.length }, func(addr string, part []*copyJob) {
		keys := make([]chunk.Key, len(part))
		dst := make([][]byte, len(part))
		for i, j := range part {
			keys[i] = j.place.key
			dst[i] = make([]byte, j.place.length)
		}
		got, err := provider.GetChunksInto(p.ctx, p.e.cfg.RPC, addr, keys, dst)
		if err != nil {
			errs.keep(fmt.Errorf("maint: getchunks at %s: %w", addr, err))
			return
		}
		for i, j := range part {
			if got[i].Err == nil {
				j.data, j.digest = dst[i][:got[i].N], got[i].Digest
			}
		}
	})
}

// push stores each job's bytes at its destinations with batched
// putchunks. A duplicate-put rejection means the copy already landed (an
// earlier partial pass): the replica is real, but no new copy was created
// — only fresh stores count, or retried passes would inflate the totals
// arbitrarily.
func (p *pass) push(byDst map[string][]*copyJob, errs *firstError) {
	batches(byDst, func(j *copyJob) uint64 { return uint64(len(j.data)) }, func(addr string, part []*copyJob) {
		put := make([]provider.PutItem, len(part))
		for i, j := range part {
			put[i] = provider.PutItem{Key: j.place.key, Data: j.data, Digest: j.digest}
		}
		rejected, err := provider.PutChunksCtx(p.ctx, p.e.cfg.RPC, addr, put)
		if err != nil {
			errs.keep(fmt.Errorf("maint: putchunks at %s: %w", addr, err))
			return
		}
		for i, j := range part {
			switch {
			case rejected[i] == nil:
				j.fresh++
			case !strings.Contains(rejected[i].Error(), chunk.ErrDuplicate.Error()):
				errs.keep(rejected[i])
				continue
			}
			j.landed = append(j.landed, addr)
		}
	})
}

// repairItem is one under-replicated (or dead-replica-carrying) chunk's
// work order within a wave.
type repairItem struct {
	copyJob
	healthy []string // surviving verified replicas, original order
	corrupt []string // live replicas holding a quarantined (corrupt) copy
	needed  int      // fresh copies required to reach the degree
	added   []string // fresh placements the allocator chose
}

// repairBlob scans one blob's retained versions and restores every live
// chunk's replication degree.
func (p *pass) repairBlob(v *blobView) error {
	live, err := p.liveSet(v)
	if err != nil {
		return err
	}
	// When the degree cannot be met with the providers alive, restore what
	// is restorable and let later passes finish when capacity returns.
	repl := min(max(int(v.status.Replication), 1), len(p.good))

	// Classify every live chunk, registering placements for rebalance.
	var wave []*repairItem
	var waveBytes uint64
	keys := make([]chunk.Key, 0, len(live.Chunks))
	for k := range live.Chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var errs firstError
	for _, k := range keys {
		ref := live.Chunks[k]
		p.st[vmanager.RepairScanned]++
		place := &chunkPlace{
			key:       k,
			length:    uint64(ref.Length),
			providers: append([]string(nil), ref.Providers...),
			leaves:    live.Leaves[k],
		}
		p.places[k] = place
		p.order = append(p.order, k)

		var healthy, corrupt []string
		for _, a := range ref.Providers {
			if !p.good[a] {
				continue
			}
			if p.corrupt[a][k] {
				// A quarantined copy is a lost replica on a live machine:
				// never a source, re-replicated around, deleted post-patch.
				corrupt = append(corrupt, a)
				continue
			}
			healthy = append(healthy, a)
		}
		if len(corrupt) == 0 && len(healthy) == len(ref.Providers) && len(healthy) >= repl {
			continue // fully replicated on live providers
		}
		if len(healthy) == 0 {
			// No surviving verified replica: unrecoverable until a holder
			// returns. Never patched (the addresses are the only lead to
			// the data) and never dropped — just counted, loudly.
			p.st[vmanager.RepairLost]++
			continue
		}
		p.st[vmanager.RepairUnderReplicated]++
		wave = append(wave, &repairItem{copyJob: copyJob{place: place}, healthy: healthy, corrupt: corrupt,
			needed: max(repl-len(healthy), 0)})
		waveBytes += place.length
		if waveBytes >= batchBytes {
			errs.keep(p.flushWave(wave))
			wave, waveBytes = nil, 0
		}
	}
	if len(wave) > 0 {
		errs.keep(p.flushWave(wave))
	}
	return errs.err
}

// flushWave repairs one wave of items: allocate fresh placements, drain
// sources with batched getchunks, push copies with batched putchunks, and
// patch the affected leaves — each phase grouped per provider so the RPC
// count tracks providers, not chunks.
func (p *pass) flushWave(items []*repairItem) error {
	cfg := &p.e.cfg
	var errs firstError
	p.allocateFresh(items, &errs)
	p.fetchSources(items, &errs)

	byDst := make(map[string][]*copyJob)
	for _, it := range items {
		if it.data == nil {
			continue
		}
		for _, dst := range it.added {
			byDst[dst] = append(byDst[dst], &it.copyJob)
		}
	}
	p.push(byDst, &errs)

	// Patch leaves: surviving replicas first (reads prefer them — they
	// hold the bytes the fetch just proved), then the fresh copies; dead
	// addresses drop out entirely so reads stop probing them even before
	// re-replication fully caught up. EXCEPT when no survivor actually
	// yielded the chunk's bytes: the listed "survivors" are then unproven
	// — a revived provider can come back with an empty store while
	// heartbeating happily — and dropping the dead address would discard
	// the only other lead to the data, which the replica-aware stray
	// sweep would then reclaim off the dead provider when it returns.
	// Unreadable items keep their full descriptor and are re-detected.
	var patches []meta.ReplicaPatch
	for _, it := range items {
		if it.data == nil {
			continue
		}
		p.st[vmanager.RepairReReplicated] += uint64(it.fresh)
		p.st[vmanager.RepairBytesMoved] += uint64(it.fresh * len(it.data))
		final := append(append([]string(nil), it.healthy...), it.landed...)
		if slices.Equal(final, it.place.providers) {
			continue
		}
		for _, leaf := range it.place.leaves {
			patches = append(patches, meta.ReplicaPatch{Key: leaf, Chunk: it.place.key, Providers: final})
		}
		it.place.providers = final
	}
	patched, err := cfg.Meta.PatchReplicas(p.ctx, patches)
	p.st[vmanager.RepairLeavesPatched] += patched
	errs.keep(err)

	// Purge quarantined copies only once the healed descriptors landed:
	// until then a metadata replica may still route reads at the corrupt
	// address, and the quarantined file is the forensic evidence anyway.
	// Items whose bytes never drained keep their corrupt copies too — an
	// unreadable chunk must not lose any lead to its data.
	if err == nil {
		purge := make(map[string][]chunk.Key)
		for _, it := range items {
			if it.data == nil {
				continue
			}
			for _, addr := range it.corrupt {
				purge[addr] = append(purge[addr], it.place.key)
			}
		}
		for addr, keys := range purge {
			if _, err := provider.DeleteChunks(p.ctx, cfg.RPC, addr, keys); err != nil {
				// The quarantined copy lingers but is never served; the next
				// pass re-lists and re-purges it.
				errs.keep(fmt.Errorf("maint: purging corrupt copies at %s: %w", addr, err))
				continue
			}
			p.st[vmanager.RepairCorruptPurged] += uint64(len(keys))
		}
	}
	return errs.err
}

// allocateFresh asks the provider manager for each item's fresh replica
// placements, grouping items with identical (needed, exclusion) shapes
// into one allocate RPC. The exclusion set is everything the chunk ever
// touched — surviving replicas (a provider must not hold two copies) and
// dead ones (they may come back still holding theirs).
func (p *pass) allocateFresh(items []*repairItem, errs *firstError) {
	type group struct {
		needed  int
		exclude []string
		items   []*repairItem
	}
	groups := make(map[string]*group)
	for _, it := range items {
		if it.needed <= 0 {
			continue
		}
		exclude := append([]string(nil), it.place.providers...)
		sort.Strings(exclude)
		sig := fmt.Sprintf("%d|%s", it.needed, strings.Join(exclude, ","))
		g := groups[sig]
		if g == nil {
			g = &group{needed: it.needed, exclude: exclude}
			groups[sig] = g
		}
		g.items = append(g.items, it)
	}
	for _, sig := range slices.Sorted(maps.Keys(groups)) {
		g := groups[sig]
		var resp pmanager.AllocateResp
		err := p.e.cfg.RPC.CallCtx(p.ctx, p.e.cfg.PM, pmanager.MethodAllocate,
			&pmanager.AllocateReq{
				NumChunks:   uint32(len(g.items)),
				Replication: uint32(g.needed),
				Exclude:     g.exclude,
			}, &resp)
		if err != nil || len(resp.Sets) != len(g.items) {
			if err == nil {
				err = fmt.Errorf("maint: allocator returned %d sets for %d chunks", len(resp.Sets), len(g.items))
			}
			errs.keep(err)
			continue
		}
		for i, it := range g.items {
			for _, a := range resp.Sets[i] {
				// The allocator ignores the exclusion rather than starve, so
				// an address the chunk already touched can come back; a
				// second copy there would be useless.
				if !slices.Contains(it.place.providers, a) && !slices.Contains(it.added, a) {
					it.added = append(it.added, a)
				}
			}
		}
	}
}

// fetchSources drains each item's chunk bytes from a surviving replica,
// batching the reads per source provider and falling back to the
// remaining replicas for individual misses. EVERY wave item is probed,
// not just those with fresh placements: the read doubles as the survivor
// proof the patch phase requires — a heartbeat only proves a provider is
// alive, not that it still holds the chunk (a provider revived with an
// empty volatile store heartbeats happily), and a patch that dropped a
// dead address on heartbeat evidence alone could discard the only real
// copy's address for the stray sweep to then reclaim.
func (p *pass) fetchSources(items []*repairItem, errs *firstError) {
	bySrc := make(map[string][]*copyJob)
	for i, it := range items {
		// Spread source load across the survivors.
		src := it.healthy[i%len(it.healthy)]
		bySrc[src] = append(bySrc[src], &it.copyJob)
	}
	p.fetch(bySrc, errs)
	// Individual fallback for misses (source lost the chunk, its copy
	// failed digest verification, or its batch failed): try the other
	// survivors one by one. A whole-chunk get verifies end-to-end, so
	// bytes that arrive here are proven good.
	for _, it := range items {
		if it.data != nil {
			continue
		}
		for _, addr := range it.healthy {
			if d, err := provider.GetChunkRangeCtx(p.ctx, p.e.cfg.RPC, addr, it.place.key, 0, 0); err == nil {
				it.data = d
				it.digest = chunk.DigestOf(d)
				break
			}
		}
		if it.data == nil {
			errs.keep(fmt.Errorf("maint: chunk %s unreadable on all %d surviving replicas",
				it.place.key, len(it.healthy)))
		}
	}
}

// migration is one planned rebalance move: replica of key from src to dst.
type migration struct {
	copyJob
	src, dst string
}

// rebalance migrates chunk replicas off providers above the fullness high
// watermark onto the emptiest providers, copy → patch → delete, bounded
// by MaxMoveBytes per pass.
func (p *pass) rebalance() error {
	cfg := &p.e.cfg
	// Projected bytes per provider, adjusted as moves are planned.
	proj := make(map[string]uint64, len(p.providers))
	caps := make(map[string]uint64, len(p.providers))
	for _, pr := range p.providers {
		if !p.good[pr.Addr] {
			continue
		}
		proj[pr.Addr] = pr.Bytes
		caps[pr.Addr] = pr.CapBytes
	}
	fullness := func(addr string) float64 {
		if caps[addr] == 0 {
			return 0
		}
		return min(float64(proj[addr])/float64(caps[addr]), 1)
	}
	var sources []string
	for addr := range proj {
		if caps[addr] > 0 && fullness(addr) > cfg.HighWater {
			sources = append(sources, addr)
		}
	}
	if len(sources) == 0 {
		return nil
	}
	sort.Slice(sources, func(i, j int) bool {
		if fullness(sources[i]) != fullness(sources[j]) {
			return fullness(sources[i]) > fullness(sources[j])
		}
		return sources[i] < sources[j]
	})

	budget := cfg.MaxMoveBytes
	var plan []*migration
	// At most one migration per chunk per pass: a chunk replicated on two
	// overfull sources must not be planned twice — the second move would
	// pick the same emptiest destination (pickDest consults only the
	// plan-time provider list) and the sequential patch substitutions
	// would leave the leaf reading [dst, dst]: claimed degree 2, one
	// physical copy, and no later pass re-detects the loss. The second
	// replica moves on the next pass, against patched metadata.
	planned := make(map[chunk.Key]bool)
	for _, src := range sources {
		target := uint64(cfg.LowWater * float64(caps[src]))
		for _, k := range p.order {
			if budget == 0 || proj[src] <= target {
				break
			}
			place := p.places[k]
			if planned[k] || !slices.Contains(place.providers, src) || place.length == 0 {
				continue
			}
			if p.corrupt[src][k] {
				continue // a quarantined copy must never be a drain source
			}
			dst := pickDest(proj, caps, place.providers, fullness)
			if dst == "" || fullness(dst) > cfg.HighWater {
				// No eligible destination FOR THIS CHUNK — its replica
				// exclusion may rule out providers that other chunks can
				// still drain to, so keep scanning rather than abandoning
				// the source (a break here would stall the same drain on
				// every pass, since p.order is deterministic).
				continue
			}
			plan = append(plan, &migration{copyJob: copyJob{place: place}, src: src, dst: dst})
			planned[k] = true
			budget -= min(place.length, budget) // approximate; lengths are chunk-bounded
			proj[src] -= min(place.length, proj[src])
			proj[dst] += place.length
		}
	}

	// Copy: batched reads per source, batched puts per destination.
	var errs firstError
	bySrc := make(map[string][]*copyJob)
	for _, m := range plan {
		bySrc[m.src] = append(bySrc[m.src], &m.copyJob)
	}
	p.fetch(bySrc, &errs)
	byDst := make(map[string][]*copyJob)
	for _, m := range plan {
		if m.data != nil {
			byDst[m.dst] = append(byDst[m.dst], &m.copyJob)
		}
	}
	p.push(byDst, &errs)

	// Patch: replace src with dst in every affected leaf, preserving the
	// replica order position.
	var patches []meta.ReplicaPatch
	var moved []*migration
	for _, m := range plan {
		if len(m.landed) == 0 {
			continue
		}
		final := slices.Clone(m.place.providers)
		final[slices.Index(final, m.src)] = m.dst
		for _, leaf := range m.place.leaves {
			patches = append(patches, meta.ReplicaPatch{Key: leaf, Chunk: m.place.key, Providers: final})
		}
		m.place.providers = final
		moved = append(moved, m)
	}
	patched, err := cfg.Meta.PatchReplicas(p.ctx, patches)
	p.st[vmanager.RepairLeavesPatched] += patched
	if err != nil {
		// Some metadata replica still names src: deleting the copy there
		// could strand a read routed through the unpatched replica (fatal
		// at replication 1). Keep the extra copy; the next pass re-patches
		// and the stray-replica sweep reclaims it once metadata is
		// consistent.
		errs.keep(err)
		return errs.err
	}

	// Delete the drained copies, batched per source.
	drained := make(map[string][]chunk.Key)
	for _, m := range moved {
		drained[m.src] = append(drained[m.src], m.place.key)
		p.st[vmanager.RepairMigrated]++
		p.st[vmanager.RepairBytesMoved] += uint64(m.fresh * len(m.data))
	}
	for src, keys := range drained {
		if _, err := provider.DeleteChunks(p.ctx, cfg.RPC, src, keys); err != nil {
			// The copy leaks on src until the stray-replica sweep reclaims
			// it (the patched metadata no longer references it there); the
			// move itself is complete.
			errs.keep(fmt.Errorf("maint: draining %s: %w", src, err))
		}
	}
	return errs.err
}

// pickDest chooses the emptiest capacity-declaring good provider not
// already holding a replica of the chunk, falling back to capacity-less
// providers only when no declared one qualifies ("" when none does).
func pickDest(proj, caps map[string]uint64, existing []string, fullness func(string) float64) string {
	best, bestUncapped := "", ""
	for addr := range proj {
		if slices.Contains(existing, addr) {
			continue
		}
		if caps[addr] == 0 {
			// Capacity-less providers are destinations of LAST RESORT:
			// their fullness reads 0 no matter how much lands on them,
			// and without a declared capacity they can never be drained
			// later, so preferring them would build an unfixable hotspot.
			if bestUncapped == "" || proj[addr] < proj[bestUncapped] ||
				(proj[addr] == proj[bestUncapped] && addr < bestUncapped) {
				bestUncapped = addr
			}
			continue
		}
		if fullness(addr) >= 1 {
			continue // full; no room even for one more chunk
		}
		if best == "" {
			best = addr
			continue
		}
		fa, fb := fullness(addr), fullness(best)
		if fa < fb || (fa == fb && (proj[addr] < proj[best] || (proj[addr] == proj[best] && addr < best))) {
			best = addr
		}
	}
	if best == "" {
		return bestUncapped
	}
	return best
}
