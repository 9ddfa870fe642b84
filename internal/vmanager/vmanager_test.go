package vmanager

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/wire"
)

func TestCreateAndInfo(t *testing.T) {
	m := NewManager()
	id, err := m.Create(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("blob ID 0")
	}
	info, err := m.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.ChunkSize != 64 || info.Replication != 3 || info.Published != 0 {
		t.Errorf("info = %+v", info)
	}
	if _, err := m.Info(999); !errors.Is(err, ErrNoSuchBlob) {
		t.Errorf("Info(unknown) = %v", err)
	}
	if _, err := m.Create(0, 1); err == nil {
		t.Error("zero chunk size accepted")
	}
	id2, _ := m.Create(64, 0)
	info2, _ := m.Info(id2)
	if info2.Replication != 1 {
		t.Errorf("default replication = %d, want 1", info2.Replication)
	}
	// A leaf cannot carry more replicas than its decoder accepts, so no
	// blob may ask for more.
	if _, err := m.Create(64, meta.MaxReplicas+1); err == nil {
		t.Errorf("replication %d accepted", meta.MaxReplicas+1)
	}
	if _, err := m.Create(64, meta.MaxReplicas); err != nil {
		t.Errorf("replication %d refused: %v", meta.MaxReplicas, err)
	}
}

func TestAssignWriteGeometry(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(100, 1)

	// v1: write [0, 250): chunks [0,3), 3 chunks total, partial tail.
	r1, err := m.Assign(&AssignReq{BlobID: id, Offset: 0, Size: 250})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version != 1 || r1.StartChunk != 0 || r1.EndChunk != 3 ||
		r1.SizeBytes != 250 || r1.SizeChunks != 3 || r1.PrevSizeBytes != 0 {
		t.Errorf("r1 = %+v", r1)
	}
	if len(r1.InFlight) != 0 || r1.PubVersion != 0 {
		t.Errorf("r1 concurrency context = %+v", r1)
	}

	// v2: interior write [100, 200): chunks [1,2), size unchanged.
	r2, err := m.Assign(&AssignReq{BlobID: id, Offset: 100, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Version != 2 || r2.StartChunk != 1 || r2.EndChunk != 2 || r2.SizeBytes != 250 {
		t.Errorf("r2 = %+v", r2)
	}
	if len(r2.InFlight) != 1 || r2.InFlight[0].Version != 1 {
		t.Errorf("r2 in-flight = %+v", r2.InFlight)
	}

	// v3: sparse write far past the end.
	r3, err := m.Assign(&AssignReq{BlobID: id, Offset: 1000, Size: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r3.StartChunk != 10 || r3.EndChunk != 11 || r3.SizeBytes != 1050 || r3.SizeChunks != 11 {
		t.Errorf("r3 = %+v", r3)
	}

	if _, err := m.Assign(&AssignReq{BlobID: id, Size: 0}); err == nil {
		t.Error("zero-size write accepted")
	}
}

func TestAppendOffsets(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	var wantOffset uint64
	for i := 0; i < 5; i++ {
		size := uint64(64 * (i + 1))
		r, err := m.Assign(&AssignReq{BlobID: id, Size: size, Append: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Offset != wantOffset {
			t.Errorf("append %d: offset = %d, want %d", i, r.Offset, wantOffset)
		}
		wantOffset += size
	}
	// Concurrent appenders must receive disjoint contiguous ranges.
	var mu sync.Mutex
	ranges := map[uint64]uint64{}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ranges[r.Offset] = r.Offset + 64
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(ranges) != 32 {
		t.Fatalf("%d distinct append offsets, want 32", len(ranges))
	}
}

func TestPublishOrdering(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	r1, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	r2, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	r3, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})

	// Commit out of order: v3 then v1 then v2.
	if err := m.Commit(id, r3.Version); err != nil {
		t.Fatal(err)
	}
	if lat, _ := m.Latest(id); lat.Version != 0 {
		t.Errorf("latest after committing v3 only = %d, want 0", lat.Version)
	}
	if err := m.Commit(id, r1.Version); err != nil {
		t.Fatal(err)
	}
	if lat, _ := m.Latest(id); lat.Version != 1 {
		t.Errorf("latest = %d, want 1", lat.Version)
	}
	if err := m.Commit(id, r2.Version); err != nil {
		t.Fatal(err)
	}
	lat, _ := m.Latest(id)
	if lat.Version != 3 || lat.SizeBytes != 192 {
		t.Errorf("latest = %+v, want v3/192B", lat)
	}
	if err := m.Commit(id, r2.Version); err == nil {
		t.Error("double commit accepted")
	}
}

func TestAbortAdvancesPublication(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	r1, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	r2, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	if err := m.Abort(id, r1.Version); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id, r2.Version); err != nil {
		t.Fatal(err)
	}
	lat, _ := m.Latest(id)
	if lat.Version != 2 {
		t.Errorf("latest = %d, want 2 (abort must not wedge the blob)", lat.Version)
	}
	vi, err := m.VersionInfo(id, r1.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !vi.Failed || !vi.Published {
		t.Errorf("aborted version info = %+v", vi)
	}
}

func TestWaitPublished(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	r1, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})

	done := make(chan error, 1)
	go func() { done <- m.WaitPublished(id, r1.Version) }()
	select {
	case <-done:
		t.Fatal("WaitPublished returned before commit")
	case <-time.After(30 * time.Millisecond):
	}
	if err := m.Commit(id, r1.Version); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitPublished never woke")
	}
	// Already-published and version-0 waits return immediately.
	if err := m.WaitPublished(id, r1.Version); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitPublished(id, 0); err != nil {
		t.Fatal(err)
	}
	// Waiting on a future (not yet assigned) version blocks until enough
	// writes are published.
	future := make(chan error, 1)
	go func() { future <- m.WaitPublished(id, 2) }()
	select {
	case <-future:
		t.Fatal("future-version wait returned early")
	case <-time.After(30 * time.Millisecond):
	}
	r2, _ := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
	if err := m.Commit(id, r2.Version); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-future:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("future-version wait never woke")
	}
}

// The in-flight window handed to a new writer must exactly cover
// (published, version) — the invariant the weave algorithm depends on.
func TestInFlightWindowInvariant(t *testing.T) {
	m := NewManager()
	id, _ := m.Create(64, 1)
	rng := rand.New(rand.NewSource(3))
	committed := map[uint64]bool{}
	var assigned []uint64
	for i := 0; i < 200; i++ {
		if len(assigned) > 0 && rng.Intn(2) == 0 {
			// Commit a random uncommitted version.
			idx := rng.Intn(len(assigned))
			v := assigned[idx]
			if !committed[v] {
				committed[v] = true
				if err := m.Commit(id, v); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		r, err := m.Assign(&AssignReq{BlobID: id, Size: 64, Append: true})
		if err != nil {
			t.Fatal(err)
		}
		assigned = append(assigned, r.Version)
		want := map[uint64]bool{}
		for v := r.PubVersion + 1; v < r.Version; v++ {
			want[v] = true
		}
		got := map[uint64]bool{}
		for _, d := range r.InFlight {
			got[d.Version] = true
		}
		if len(got) != len(want) {
			t.Fatalf("in-flight window mismatch: got %v want %v", got, want)
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("missing in-flight version %d", v)
			}
		}
	}
}

func TestServerOverRPC(t *testing.T) {
	network := rpc.NewSimNetwork(nil)
	srv := NewServer(network, "vm")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := rpc.NewClient(network, 5*time.Second)
	defer cli.Close()

	var created CreateResp
	if err := cli.Call("vm", MethodCreate, &CreateReq{ChunkSize: 128, Replication: 2}, &created); err != nil {
		t.Fatal(err)
	}
	var assign AssignResp
	err := cli.Call("vm", MethodAssign, &AssignReq{BlobID: created.BlobID, Size: 256, Append: true}, &assign)
	if err != nil {
		t.Fatal(err)
	}
	if assign.Version != 1 || assign.EndChunk != 2 {
		t.Errorf("assign = %+v", assign)
	}
	if err := cli.Call("vm", MethodCommit, &VersionRef{BlobID: created.BlobID, Version: 1}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	var latest LatestResp
	if err := cli.Call("vm", MethodLatest, &BlobRef{BlobID: created.BlobID}, &latest); err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 || latest.SizeBytes != 256 {
		t.Errorf("latest = %+v", latest)
	}
	var list ListResp
	if err := cli.Call("vm", MethodList, &Ack{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.IDs) != 1 || list.IDs[0] != created.BlobID {
		t.Errorf("list = %+v", list)
	}
}

// The one maintenance counter codec: every counter id survives the wire
// in its own slot, and every exported table row is fully declared.
func TestCountersWireRoundTrip(t *testing.T) {
	for id, def := range CounterTable {
		if def.Plane == "" || def.Name == "" || def.Help == "" {
			t.Errorf("counter %d is not declared in CounterTable: %+v", id, def)
		}
		var in, out Counters
		in[id] = uint64(id) + 1
		if err := wire.Unmarshal(wire.Marshal(&in), &out); err != nil {
			t.Fatalf("counter %s/%s: %v", def.Plane, def.Name, err)
		}
		if out != in {
			t.Errorf("counter %s/%s: round trip gave %v, want %v", def.Plane, def.Name, out, in)
		}
	}
	var full, out Counters
	for id := range full {
		full[id] = ^uint64(0) - uint64(id)
	}
	if err := wire.Unmarshal(wire.Marshal(&full), &out); err != nil || out != full {
		t.Errorf("full table round trip: %v, %v", out, err)
	}
}
