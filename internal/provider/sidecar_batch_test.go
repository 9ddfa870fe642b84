package provider

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/durable"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// sidecarRig is a provider over a disk store with an fsync'd sidecar,
// restartable in place (same directories, same address).
type sidecarRig struct {
	t                 *testing.T
	network           rpc.Network
	chunkDir, sideDir string
	srv               *Server
	cli               *rpc.Client
}

func newSidecarRig(t *testing.T) *sidecarRig {
	t.Helper()
	r := &sidecarRig{t: t, network: rpc.NewSimNetwork(nil), chunkDir: t.TempDir(), sideDir: t.TempDir()}
	r.open()
	r.cli = rpc.NewClient(r.network, 5*time.Second)
	t.Cleanup(func() {
		r.cli.Close()
		r.srv.Close()
	})
	return r
}

func (r *sidecarRig) open() {
	r.t.Helper()
	store, err := chunk.NewDiskStore(r.chunkDir, false)
	if err != nil {
		r.t.Fatal(err)
	}
	srv, err := NewServerWithOptions(r.network, "dp", store, Options{SidecarDir: r.sideDir, FsyncSidecar: true})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		r.t.Fatal(err)
	}
	r.srv = srv
}

// restart closes the provider and reopens it on the same directories. The
// client's cached connection died with the old instance and a failed call
// drops it, so ping until the new one answers.
func (r *sidecarRig) restart() {
	r.t.Helper()
	r.srv.Close()
	r.open()
	for i := 0; ; i++ {
		if _, err := Stats(context.Background(), r.cli, "dp"); err == nil {
			return
		} else if i >= 100 {
			r.t.Fatalf("provider unreachable after restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *sidecarRig) appends() uint64 {
	st, ok := r.srv.SidecarStats()
	if !ok {
		r.t.Fatal("provider has no sidecar")
	}
	return st.Appends
}

// fill returns n bytes whose content (and digest) differs per seed.
func fill(seed, n int) []byte { return bytes.Repeat([]byte{byte(seed)}, n) }

// A whole putchunks is journaled as one sidecar record — one group-commit
// wait — however many chunks it carries; a batch that stores nothing
// journals nothing.
func TestSidecarOneRecordPerPutBatch(t *testing.T) {
	r := newSidecarRig(t)
	items := make([]PutItem, 32)
	for i := range items {
		items[i] = PutItem{Key: chunk.Key{Blob: 1, Version: 1, Index: uint64(i)}, Data: fill(i, 64<<10)}
	}
	before := r.appends()
	errs, err := PutChunks(r.cli, "dp", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("chunk %d: %v", i, e)
		}
	}
	if got := r.appends() - before; got != 1 {
		t.Fatalf("32-chunk putchunks made %d sidecar appends, want 1", got)
	}

	if err := Tombstone(context.Background(), r.cli, "dp", []uint64{9}); err != nil {
		t.Fatal(err)
	}
	before = r.appends()
	rejected := []PutItem{
		{Key: chunk.Key{Blob: 9, Version: 1, Index: 0}, Data: fill(1, 100)},
		{Key: chunk.Key{Blob: 1, Version: 2, Index: 0}, Data: fill(2, 100), Digest: chunk.DigestOf(fill(3, 100))},
	}
	errs, err = PutChunks(r.cli, "dp", rejected)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("rejected chunk %d was stored", i)
		}
	}
	if got := r.appends() - before; got != 0 {
		t.Fatalf("all-rejected putchunks made %d sidecar appends, want 0", got)
	}
}

// One putchunks mixes stored chunks with a chunk of a tombstoned blob and
// a chunk that fails the ingest digest check. After a restart every acked
// chunk comes back with its digest and its original put age, and neither
// rejected key appears in the replayed state.
func TestSidecarMixedBatchReplaysAckedChunksOnly(t *testing.T) {
	r := newSidecarRig(t)
	if err := Tombstone(context.Background(), r.cli, "dp", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	dead := chunk.Key{Blob: 7, Version: 1, Index: 0}
	torn := chunk.Key{Blob: 1, Version: 1, Index: 3}
	batch := []PutItem{
		{Key: chunk.Key{Blob: 1, Version: 1, Index: 0}, Data: fill(10, 4096)},
		{Key: dead, Data: fill(11, 4096)},
		{Key: chunk.Key{Blob: 1, Version: 1, Index: 1}, Data: fill(12, 4096)},
		{Key: torn, Data: fill(13, 4096), Digest: chunk.DigestOf(fill(14, 4096))},
		{Key: chunk.Key{Blob: 1, Version: 1, Index: 2}, Data: fill(15, 100)},
	}
	errs, err := PutChunks(r.cli, "dp", batch)
	if err != nil {
		t.Fatal(err)
	}
	var acked []PutItem
	for i, e := range errs {
		switch batch[i].Key {
		case dead:
			if e == nil || !strings.Contains(e.Error(), "deleted") {
				t.Fatalf("tombstoned chunk: err = %v, want rejection", e)
			}
		case torn:
			if !IsCorrupt(e) {
				t.Fatalf("chunk failing ingest check: err = %v, want corrupt", e)
			}
		default:
			if e != nil {
				t.Fatalf("chunk %s: %v", batch[i].Key, e)
			}
			acked = append(acked, batch[i])
		}
	}
	ages := make(map[chunk.Key]time.Time)
	digs := make(map[chunk.Key]digestRec)
	r.srv.putMu.Lock()
	for _, it := range acked {
		ages[it.Key] = r.srv.putTimes[it.Key]
	}
	r.srv.putMu.Unlock()
	r.srv.digMu.Lock()
	for _, it := range acked {
		digs[it.Key] = r.srv.digests[it.Key]
	}
	r.srv.digMu.Unlock()

	r.restart()

	r.srv.putMu.Lock()
	for _, it := range acked {
		want := time.UnixMilli(ages[it.Key].UnixMilli())
		if got, ok := r.srv.putTimes[it.Key]; !ok || !got.Equal(want) {
			t.Errorf("put age of %s after restart = %v (present %v), want %v", it.Key, got, ok, want)
		}
	}
	for _, k := range []chunk.Key{dead, torn} {
		if _, ok := r.srv.putTimes[k]; ok {
			t.Errorf("rejected chunk %s has a replayed put age", k)
		}
	}
	r.srv.putMu.Unlock()
	r.srv.digMu.Lock()
	for _, it := range acked {
		if got := r.srv.digests[it.Key]; got != digs[it.Key] || got.Length != uint32(len(it.Data)) {
			t.Errorf("digest of %s after restart = %+v, want %+v", it.Key, got, digs[it.Key])
		}
	}
	for _, k := range []chunk.Key{dead, torn} {
		if _, ok := r.srv.digests[k]; ok {
			t.Errorf("rejected chunk %s has a replayed digest", k)
		}
	}
	r.srv.digMu.Unlock()

	for _, it := range acked {
		data, err := GetChunk(r.cli, "dp", it.Key)
		if err != nil || !bytes.Equal(data, it.Data) {
			t.Fatalf("read of %s after restart: %d bytes, err %v", it.Key, len(data), err)
		}
	}
	st, err := Stats(context.Background(), r.cli, "dp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Backfilled != 0 {
		t.Fatalf("Backfilled = %d after restart, want 0 (an acked chunk lost its digest)", st.Backfilled)
	}
}

// The batch record is the sidecar's existing multi-section layout — a
// put-age section then a digest section — so replaySidecarRecord reads it
// unchanged, and its bytes are exactly that layout encoded field by field.
// A digest backfill (a legacy chunk's first clean read) journals a lone
// digest section and leaves the chunk's put age alone.
func TestSidecarBatchRecordLayout(t *testing.T) {
	r := newSidecarRig(t)
	items := []PutItem{
		{Key: chunk.Key{Blob: 3, Version: 2, Index: 0}, Data: fill(20, 1000)},
		{Key: chunk.Key{Blob: 3, Version: 2, Index: 1}, Data: fill(21, 77)},
	}
	if errs, err := PutChunks(r.cli, "dp", items); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("putchunks: %v %v", errs, err)
	}
	want := wire.NewEncoder(0)
	want.PutU8(1) // put-age section
	want.PutU32(uint32(len(items)))
	r.srv.putMu.Lock()
	for _, it := range items {
		want.PutU64(it.Key.Blob)
		want.PutU64(it.Key.Version)
		want.PutU64(it.Key.Index)
		want.PutU64(uint64(r.srv.putTimes[it.Key].UnixMilli()))
	}
	r.srv.putMu.Unlock()
	want.PutU8(4) // digest section
	want.PutU32(uint32(len(items)))
	for _, it := range items {
		dg := chunk.DigestOf(it.Data)
		want.PutU64(it.Key.Blob)
		want.PutU64(it.Key.Version)
		want.PutU64(it.Key.Index)
		want.PutU8(dg.Algo)
		want.PutU32(dg.Sum)
		want.PutU32(uint32(len(it.Data)))
	}
	legacy, legacyData := chunk.Key{Blob: 3, Version: 1, Index: 0}, fill(22, 500)
	if err := r.srv.Store().Put(legacy, legacyData); err != nil {
		t.Fatal(err)
	}
	if _, err := GetChunk(r.cli, "dp", legacy); err != nil {
		t.Fatal(err)
	}
	wantBackfill := wire.NewEncoder(0)
	wantBackfill.PutU8(4)
	wantBackfill.PutU32(1)
	wantBackfill.PutU64(legacy.Blob)
	wantBackfill.PutU64(legacy.Version)
	wantBackfill.PutU64(legacy.Index)
	dg := chunk.DigestOf(legacyData)
	wantBackfill.PutU8(dg.Algo)
	wantBackfill.PutU32(dg.Sum)
	wantBackfill.PutU32(uint32(len(legacyData)))
	r.srv.Close()

	log, rec, err := durable.Open(r.sideDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if rec.Snapshot != nil || len(rec.Records) != 2 {
		t.Fatalf("sidecar holds snapshot %v and %d records, want two records", rec.Snapshot != nil, len(rec.Records))
	}
	if !bytes.Equal(rec.Records[0], want.Bytes()) {
		t.Fatalf("batch record bytes differ from the put-age + digest section layout:\n got %x\nwant %x", rec.Records[0], want.Bytes())
	}
	if !bytes.Equal(rec.Records[1], wantBackfill.Bytes()) {
		t.Fatalf("backfill record bytes differ from a one-key digest section:\n got %x\nwant %x", rec.Records[1], wantBackfill.Bytes())
	}
	putTimes := make(map[chunk.Key]time.Time)
	digests := make(map[chunk.Key]digestRec)
	for _, record := range rec.Records {
		if err := replaySidecarRecord(record, putTimes, make(map[uint64]struct{}), digests); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := putTimes[legacy]; ok {
		t.Fatalf("digest backfill journaled a put age")
	}
	if len(putTimes) != len(items) || len(digests) != len(items)+1 {
		t.Fatalf("replayed %d ages and %d digests, want %d and %d", len(putTimes), len(digests), len(items), len(items)+1)
	}
	for _, it := range append(items, PutItem{Key: legacy, Data: legacyData}) {
		if d := digests[it.Key]; d.Digest != chunk.DigestOf(it.Data) || d.Length != uint32(len(it.Data)) {
			t.Fatalf("replayed digest of %s = %+v", it.Key, d)
		}
	}
}
