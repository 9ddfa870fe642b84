// Chunk integrity: digest verification on every read path, quarantine of
// corrupt copies, and the provider half of the background scrubber.
//
// Chunks are immutable, so the digest recorded at put time (computed by
// the writer, carried on the wire, journaled in the sidecar) is the
// ground truth for the chunk's whole life. Every full-chunk read
// re-checks it; a mismatch quarantines the copy and surfaces a typed
// ErrChunkCorrupt instead of bad bytes, so readers fail over to another
// replica and the repair engine re-replicates from a verified-good
// survivor. Ranged reads verify too: when a digest is on file the
// provider materializes the whole chunk, checks it, and serves the
// slice — a few extra bytes off disk beats handing out rot.
//
// Chunks persisted before digests existed ("legacy": disk files or
// sidecar state from older builds) have nothing on file to check
// against; they are served as-is and backfilled with a digest on their
// first clean full read, so a mixed-age deployment converges to fully
// verified without a migration.
package provider

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chunk"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Integrity method names served by a data provider.
const (
	// MethodVerify re-checks one chunk against its recorded digest. Sent
	// by readers whose own end-to-end check failed: the provider trusts
	// only its own re-read (a buggy or lying client must not be able to
	// quarantine good data), quarantining the copy only if the recheck
	// fails too.
	MethodVerify = "provider.verify"
	// MethodScrub verifies one bounded slice of the provider's inventory
	// (cursor + byte budget). The scrub engine loops it cluster-wide at a
	// bounded rate; payloads never cross the wire — verification is local.
	MethodScrub = "provider.scrub"
	// MethodCorruptList reports the quarantined chunk keys, so the repair
	// engine can treat those replicas as lost and heal them.
	MethodCorruptList = "provider.corruptlist"
)

// ErrChunkCorrupt marks a chunk whose bytes fail digest verification.
// The text crosses the RPC boundary as a string; IsCorrupt matches it on
// the client side (the ErrBlobDeleted precedent).
var ErrChunkCorrupt = fmt.Errorf("provider: chunk corrupt")

// IsCorrupt reports whether err (possibly a RemoteError from across the
// wire) marks a corrupt chunk.
func IsCorrupt(err error) bool {
	return err != nil && strings.Contains(err.Error(), "chunk corrupt")
}

// VerifyReq asks the provider to re-verify one chunk.
type VerifyReq struct {
	Key chunk.Key
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *VerifyReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *VerifyReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *VerifyReq) Wire(c *wire.Codec)     { r.Key.Wire(c) }

// VerifyResp reports the provider's own verdict on its copy.
type VerifyResp struct {
	Held    bool // provider stores (or quarantines) this key
	Corrupt bool // the copy failed the provider's own recheck
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *VerifyResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *VerifyResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *VerifyResp) Wire(c *wire.Codec) {
	c.Bool(&r.Held)
	c.Bool(&r.Corrupt)
}

// ScrubReq verifies inventory from Cursor (exclusive, ignored unless
// Resume) until about MaxBytes of payload have been checked. MaxBytes 0
// applies a server default.
type ScrubReq struct {
	Cursor   chunk.Key
	Resume   bool
	MaxBytes uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ScrubReq) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ScrubReq) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ScrubReq) Wire(c *wire.Codec) {
	r.Cursor.Wire(c)
	c.Bool(&r.Resume)
	c.U64(&r.MaxBytes)
}

// ScrubResp reports one scrub slice: where to resume, and what it found.
type ScrubResp struct {
	NextCursor chunk.Key
	Done       bool // inventory exhausted; NextCursor is meaningless
	Scanned    uint64
	Bytes      uint64
	Corrupt    uint64
	Backfilled uint64
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *ScrubResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *ScrubResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *ScrubResp) Wire(c *wire.Codec) {
	r.NextCursor.Wire(c)
	c.Bool(&r.Done)
	c.U64(&r.Scanned)
	c.U64(&r.Bytes)
	c.U64(&r.Corrupt)
	c.U64(&r.Backfilled)
}

// CorruptListResp returns the quarantined keys.
type CorruptListResp struct {
	Keys []chunk.Key
}

// Encode, Decode and Wire implement wire.Message: Wire is the field list.
func (r *CorruptListResp) Encode(e *wire.Encoder) { r.Wire(e.Codec()) }
func (r *CorruptListResp) Decode(d *wire.Decoder) { r.Wire(d.Codec()) }
func (r *CorruptListResp) Wire(c *wire.Codec) {
	wire.Slice(c, &r.Keys, wire.MaxCount, (*chunk.Key).Wire)
}

// scrubDefaultBytes is the per-RPC verification budget when the request
// does not name one.
const scrubDefaultBytes = 8 << 20

// getVerified reads a whole chunk and checks it against the recorded
// digest; it is the only way the provider reads a whole chunk. The store
// reads into buf when it reads at all (see chunk.Store.GetInto), so data
// may alias buf: the caller releases the buf it passed in (readBuf's),
// never the returned slice, and only once it is done with data.
// Quarantined keys and digest mismatches return ErrChunkCorrupt; a chunk
// with no digest on file (legacy) is served as-is and backfilled. The
// returned digest is what the wire response carries so the reader can
// re-verify end-to-end; backfilled reports whether this read minted the
// chunk's digest.
func (s *Server) getVerified(k chunk.Key, buf []byte) (data []byte, dg chunk.Digest, backfilled bool, err error) {
	s.digMu.Lock()
	_, quar := s.quarantine[k]
	rec, hasDig := s.digests[k]
	s.digMu.Unlock()
	if quar {
		return nil, chunk.Digest{}, false, fmt.Errorf("%w: %s (quarantined)", ErrChunkCorrupt, k)
	}
	data, err = s.store.GetInto(k, buf)
	if err != nil {
		return nil, chunk.Digest{}, false, err
	}
	s.counts[Verified].Add(1)
	if !hasDig || rec.Digest.IsZero() {
		dg = chunk.DigestOf(data)
		s.recordDigest(k, digestRec{Digest: dg, Length: uint32(len(data))})
		s.counts[Backfilled].Add(1)
		return data, dg, true, nil
	}
	if uint32(len(data)) != rec.Length || !rec.Digest.Verify(data) {
		s.quarantineKey(k)
		return nil, chunk.Digest{}, false, fmt.Errorf("%w: %s", ErrChunkCorrupt, k)
	}
	return data, rec.Digest, false, nil
}

// readBuf takes a pooled buffer for a whole read of k, sized by its
// recorded length or, for a legacy chunk, by the store's manifest; nil
// when neither knows the size. Return it with wire.PutBuf.
func (s *Server) readBuf(k chunk.Key) []byte {
	s.digMu.Lock()
	rec, ok := s.digests[k]
	s.digMu.Unlock()
	if ok {
		return wire.GetBuf(int(rec.Length))
	}
	if sz, isSizer := s.store.(sizer); isSizer {
		if n, held := sz.Size(k); held {
			return wire.GetBuf(int(n))
		}
	}
	return nil
}

// recordDigest backfills a legacy chunk's integrity manifest: stored in
// RAM and (when a sidecar is configured) journaled as a one-key digest
// section, leaving the chunk's put age alone. The record is advisory:
// losing it demotes the chunk to legacy until its next clean read.
func (s *Server) recordDigest(k chunk.Key, rec digestRec) {
	s.digMu.Lock()
	s.digests[k] = rec
	var wait func() error
	if s.side != nil {
		wait = s.side.appendChunkState(nil, []digestEntry{{Key: k, Rec: rec}})
	}
	s.digMu.Unlock()
	if wait != nil {
		_ = wait()
		s.maybeCompactSidecar()
	}
}

// quarantineKey marks a copy corrupt: it is never served and never used
// as a repair source again, and shows up in MethodCorruptList so the
// repair engine re-replicates from a good survivor and then deletes it.
func (s *Server) quarantineKey(k chunk.Key) {
	s.digMu.Lock()
	_, already := s.quarantine[k]
	if !already {
		s.quarantine[k] = struct{}{}
	}
	s.digMu.Unlock()
	if !already {
		s.counts[Corrupt].Add(1)
	}
}

// dropIntegrity forgets digest and quarantine state for a deleted chunk.
func (s *Server) dropIntegrity(k chunk.Key) {
	s.digMu.Lock()
	delete(s.digests, k)
	delete(s.quarantine, k)
	s.digMu.Unlock()
}

// quarantinedCount reports how many copies are currently quarantined.
func (s *Server) quarantinedCount() int {
	s.digMu.Lock()
	defer s.digMu.Unlock()
	return len(s.quarantine)
}

// sizer is implemented by engines that can report a stored chunk's size
// without reading it (the disk store's in-memory index).
type sizer interface {
	Size(k chunk.Key) (int64, bool)
}

// bootCheck cross-checks the store's inventory against the sidecar's
// integrity manifests on startup: a chunk whose on-disk length disagrees
// with its recorded length is torn (a crashed Put cannot cause this — the
// disk store drops a record whose header was never written — but
// filesystem truncation or external tampering can) and is quarantined
// before it can be served.
func (s *Server) bootCheck() {
	sz, ok := s.store.(sizer)
	if !ok {
		return
	}
	s.digMu.Lock()
	var torn []chunk.Key
	for k, rec := range s.digests {
		if size, held := sz.Size(k); held && size != int64(rec.Length) {
			torn = append(torn, k)
		}
	}
	s.digMu.Unlock()
	for _, k := range torn {
		s.quarantineKey(k)
	}
}

// scrubStep verifies one bounded slice of the inventory. Quarantined
// copies are skipped (already counted when detected); missing keys are
// races with deletion, not errors.
func (s *Server) scrubStep(req *ScrubReq) *ScrubResp {
	budget := req.MaxBytes
	if budget == 0 {
		budget = scrubDefaultBytes
	}
	resp := &ScrubResp{Done: true}
	for _, k := range s.store.Keys() {
		if req.Resume && !req.Cursor.Less(k) {
			continue
		}
		if resp.Bytes >= budget {
			// NextCursor already names the last key processed.
			resp.Done = false
			break
		}
		resp.NextCursor = k
		s.digMu.Lock()
		_, quar := s.quarantine[k]
		s.digMu.Unlock()
		if quar {
			continue
		}
		buf := s.readBuf(k)
		data, _, backfilled, err := s.getVerified(k, buf)
		n := len(data)
		wire.PutBuf(buf)
		if IsCorrupt(err) {
			resp.Scanned++
			resp.Corrupt++
			continue
		}
		if err != nil {
			continue // deleted mid-scan
		}
		resp.Scanned++
		resp.Bytes += uint64(n)
		if backfilled {
			resp.Backfilled++
		}
	}
	return resp
}

// VerifyChunk asks a provider to re-verify its copy of key against the
// recorded digest (see MethodVerify).
func VerifyChunk(ctx context.Context, cli *rpc.Client, addr string, key chunk.Key) (*VerifyResp, error) {
	var resp VerifyResp
	if err := cli.CallCtx(ctx, addr, MethodVerify, &VerifyReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Scrub runs one bounded verification slice on a provider. Start with
// resume false; pass back NextCursor with resume true until Done.
func Scrub(ctx context.Context, cli *rpc.Client, addr string, cursor chunk.Key, resume bool, maxBytes uint64) (*ScrubResp, error) {
	var resp ScrubResp
	if err := cli.CallCtx(ctx, addr, MethodScrub, &ScrubReq{Cursor: cursor, Resume: resume, MaxBytes: maxBytes}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CorruptList fetches a provider's quarantined chunk keys.
func CorruptList(ctx context.Context, cli *rpc.Client, addr string) ([]chunk.Key, error) {
	var resp CorruptListResp
	if err := cli.CallCtx(ctx, addr, MethodCorruptList, &Ack{}, &resp); err != nil {
		return nil, err
	}
	return resp.Keys, nil
}
