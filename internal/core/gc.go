package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/rpc"
	"repro/internal/vmanager"
)

// Errors reported by the retention/GC client API.
var (
	// ErrVersionReclaimed marks reads of versions below a blob's retention
	// floor: the snapshot has been (or is being) garbage collected.
	ErrVersionReclaimed = errors.New("core: version reclaimed by retention policy")
	// ErrBlobDeleted marks operations on deleted blobs.
	ErrBlobDeleted = errors.New("core: blob deleted")
)

// mapVMError translates version-manager remote errors into the client
// library's typed errors. Errors cross the RPC boundary as strings, so the
// deleted-blob marker is matched by text (kept in sync with
// vmanager.ErrBlobDeleted).
func mapVMError(err error) error {
	if err == nil {
		return nil
	}
	var remote *rpc.RemoteError
	if errors.As(err, &remote) && strings.Contains(remote.Msg, "vmanager: blob deleted") {
		return fmt.Errorf("%w: %v", ErrBlobDeleted, err)
	}
	if errors.As(err, &remote) && strings.Contains(remote.Msg, "vmanager: lease expired") {
		return fmt.Errorf("%w: %v", ErrLeaseExpired, err)
	}
	return err
}

// SetRetention installs a keep-last-N retention policy on the blob: after
// every publish, versions older than the newest N become reclaimable and
// the next GC sweep frees their exclusive chunks and metadata. keepLast 0
// restores keep-all (the default), but never resurrects an already-raised
// floor.
func (b *Blob) SetRetention(keepLast uint64) error {
	err := b.c.vm.Call(context.Background(), vmanager.MethodSetRetention,
		&vmanager.RetentionReq{BlobID: b.id, KeepLast: keepLast}, &vmanager.Ack{})
	if err != nil {
		return fmt.Errorf("core: set retention of blob %d: %w", b.id, mapVMError(err))
	}
	return nil
}

// Prune makes versions 1..upTo reclaimable and returns the blob's new
// retention floor (the oldest version still readable). The newest
// published version can never be pruned. Reclamation is asynchronous:
// readers are refused immediately, space returns on the next GC sweep.
func (b *Blob) Prune(upTo uint64) (retainFrom uint64, err error) {
	var resp vmanager.PruneResp
	err = b.c.vm.Call(context.Background(), vmanager.MethodPrune,
		&vmanager.PruneReq{BlobID: b.id, UpTo: upTo}, &resp)
	if err != nil {
		return 0, fmt.Errorf("core: prune blob %d: %w", b.id, mapVMError(err))
	}
	return resp.RetainFrom, nil
}

// Retention reports the blob's retention policy and current floor.
func (b *Blob) Retention() (keepLast, retainFrom uint64, err error) {
	var info vmanager.InfoResp
	err = b.c.vm.Call(context.Background(), vmanager.MethodInfo, &vmanager.BlobRef{BlobID: b.id}, &info)
	if err != nil {
		return 0, 0, fmt.Errorf("core: retention of blob %d: %w", b.id, mapVMError(err))
	}
	return info.KeepLast, info.RetainFrom, nil
}

// DeleteBlob removes a blob outright: every subsequent operation on it
// fails with a deleted-blob error, and the next GC sweep reclaims all its
// chunks and metadata across the deployment. Deletion is idempotent.
func (c *Client) DeleteBlob(id uint64) error {
	err := c.vm.Call(context.Background(), vmanager.MethodDelete, &vmanager.BlobRef{BlobID: id}, &vmanager.Ack{})
	if err != nil {
		return fmt.Errorf("core: delete blob %d: %w", id, mapVMError(err))
	}
	return nil
}

// GCStats reports the deployment's cumulative garbage-collection totals as
// aggregated by the version manager.
type GCStats struct {
	// Chunks and Bytes count reclaimed chunk replicas and their payload.
	Chunks uint64
	Bytes  uint64
	// Nodes counts reclaimed metadata tree node replicas.
	Nodes uint64
	// Orphans counts chunks reclaimed from aborted writes.
	Orphans uint64
	// PrunedVersions counts versions fully swept.
	PrunedVersions uint64
	// PendingBlobs counts blobs with outstanding GC work.
	PendingBlobs uint64
}

// GCStats fetches the deployment-wide reclamation totals.
func (c *Client) GCStats() (*GCStats, error) {
	var resp vmanager.Counters
	if err := c.vm.Call(context.Background(), vmanager.MethodMaintStats, &vmanager.Ack{}, &resp); err != nil {
		return nil, fmt.Errorf("core: gc stats: %w", err)
	}
	return &GCStats{
		Chunks:         resp[vmanager.GCChunks],
		Bytes:          resp[vmanager.GCBytes],
		Nodes:          resp[vmanager.GCNodes],
		Orphans:        resp[vmanager.GCOrphans],
		PrunedVersions: resp[vmanager.GCPruned],
		PendingBlobs:   resp[vmanager.GCPending],
	}, nil
}
