package maint_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/maint"
	"repro/internal/meta"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// methodCounter is an rpc.ServerObserver tallying served requests by method.
type methodCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (m *methodCounter) ObserveRequest(method string, _, _ int, _ time.Duration, _ error, _ bool, _ uint64) {
	m.mu.Lock()
	m.n[method]++
	m.mu.Unlock()
}

func (m *methodCounter) take(method string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.n[method]
	m.n[method] = 0
	return n
}

// One pass, one walk: reclaim and replicate running together fetch a
// blob's vm.gcstatus once and walk its retained versions once. The
// replicate-only pass measures what one walk costs; the combined pass —
// whose orphan sweep needs the very same live set — must cost no more.
func TestPassSharesStatusAndWalkAcrossActions(t *testing.T) {
	c := repairCluster(t, cluster.Config{DataProviders: 3, GCOrphanGrace: time.Millisecond})
	calls := &methodCounter{n: make(map[string]int)}
	c.VM.SetRPCObserver(calls)
	for _, ms := range c.MetaServers {
		ms.SetRPCObserver(calls)
	}

	cli, err := c.NewClient(cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 1024
	blob, err := cli.CreateBlob(chunkSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ { // three retained versions sharing subtrees
		if _, err := blob.Write(make([]byte, 16*chunkSize), uint64(v)*4*chunkSize); err != nil {
			t.Fatal(err)
		}
	}

	calls.take(vmanager.MethodGCStatus)
	calls.take(meta.MethodGetNodes)
	if _, err := c.Maint.Run(maint.Replicate); err != nil {
		t.Fatalf("replicate pass: %v", err)
	}
	statusOne, walkOne := calls.take(vmanager.MethodGCStatus), calls.take(meta.MethodGetNodes)
	if statusOne != 1 || walkOne == 0 {
		t.Fatalf("replicate-only pass: %d vm.gcstatus, %d meta.getnodes; want 1 and > 0", statusOne, walkOne)
	}

	// An aborted-write leftover gives the orphan sweep a reason to resolve
	// the blob's candidates against its live set.
	orphan := chunk.Key{Blob: blob.ID(), Version: 99, Index: 0}
	if errs, err := provider.PutChunks(testRPC(t, c), c.ProviderAddrs()[0], []provider.PutItem{{Key: orphan, Data: []byte("orphan")}}); err != nil || errs[0] != nil {
		t.Fatal(err, errs)
	}
	time.Sleep(5 * time.Millisecond) // age past the grace

	st, err := c.Maint.Run(maint.Reclaim | maint.Replicate)
	if err != nil {
		t.Fatalf("combined pass: %v", err)
	}
	if st[vmanager.GCOrphans] != 1 || st[vmanager.RepairScanned] == 0 {
		t.Fatalf("combined pass did not run both actions: %s; %s", maint.Reclaim.Summary(&st, ""), maint.Replicate.Summary(&st, ""))
	}
	if got := calls.take(vmanager.MethodGCStatus); got != 1 {
		t.Errorf("combined pass issued %d vm.gcstatus for one blob, want 1", got)
	}
	if got := calls.take(meta.MethodGetNodes); got != walkOne {
		t.Errorf("combined pass issued %d meta.getnodes, want %d (one shared walk)", got, walkOne)
	}
}
