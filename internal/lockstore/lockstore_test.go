package lockstore_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lockstore"
)

func startLockstore(t *testing.T) (*cluster.Cluster, *lockstore.Server) {
	t.Helper()
	c, err := cluster.Start(cluster.Config{DataProviders: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ls := lockstore.NewServer(c.Network, "ls")
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return c, ls
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, ls := startLockstore(t)
	cli := lockstore.NewClient(c.Network, "lsc1", ls.Addr(), c.PMAddr(), 5*time.Second)
	defer cli.Close()

	obj, err := cli.Create(1024)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := obj.Write(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := obj.Read(got, 0)
	if err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Overwrite in place: single version, old data gone.
	over := make([]byte, 1024)
	for i := range over {
		over[i] = 0xEE
	}
	if err := obj.Write(over, 2048); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[2048:3072], over) {
		t.Fatal("overwrite not visible")
	}
	if !bytes.Equal(got[:2048], data[:2048]) {
		t.Fatal("unrelated range corrupted")
	}
}

func TestUnalignedWriteRejected(t *testing.T) {
	c, ls := startLockstore(t)
	cli := lockstore.NewClient(c.Network, "lsc1", ls.Addr(), c.PMAddr(), 5*time.Second)
	defer cli.Close()
	obj, _ := cli.Create(1024)
	if err := obj.Write(make([]byte, 10), 13); err == nil {
		t.Fatal("unaligned write accepted")
	}
}

// Writers must exclude readers: this is exactly the behavior BlobSeer
// removes, and the property the paper's supernovae experiment measures.
func TestWritersBlockReaders(t *testing.T) {
	c, ls := startLockstore(t)
	w := lockstore.NewClient(c.Network, "lsw", ls.Addr(), c.PMAddr(), 10*time.Second)
	defer w.Close()
	r := lockstore.NewClient(c.Network, "lsr", ls.Addr(), c.PMAddr(), 10*time.Second)
	defer r.Close()

	obj, err := w.Create(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}

	// Run many read/write pairs concurrently; the model (serializable
	// single version) must never expose torn data. With 100ms of writer
	// hold time the reader must observe blocking.
	robj := r.Open(obj.ID(), 1024)
	var wg sync.WaitGroup
	wg.Add(2)
	writerHold := make(chan struct{})
	go func() {
		defer wg.Done()
		// Hold the write lock by performing a large write while the
		// reader tries to get in.
		close(writerHold)
		if err := obj.Write(make([]byte, 1<<20), 0); err != nil {
			t.Error(err)
		}
	}()
	<-writerHold
	time.Sleep(5 * time.Millisecond) // let the writer grab the lock
	start := time.Now()
	go func() {
		defer wg.Done()
		buf := make([]byte, 1024)
		if _, err := robj.Read(buf, 0); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		// The read went through instantly: locking is not effective.
		// (The write of 1 MiB through the sim network takes well over
		// 1ms wall time because of the chunk RPCs.)
		t.Logf("warning: reader waited only %v; lock contention not observable", elapsed)
	}
}

func TestConcurrentReadersAllowed(t *testing.T) {
	c, ls := startLockstore(t)
	cli := lockstore.NewClient(c.Network, "lsc", ls.Addr(), c.PMAddr(), 10*time.Second)
	defer cli.Close()
	obj, _ := cli.Create(1024)
	if err := obj.Write(make([]byte, 16384), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16384)
			if n, err := obj.Read(buf, 0); err != nil || n != 16384 {
				t.Errorf("read = %d, %v", n, err)
			}
		}()
	}
	wg.Wait()
}

func TestReadBeyondSize(t *testing.T) {
	c, ls := startLockstore(t)
	cli := lockstore.NewClient(c.Network, "lsc", ls.Addr(), c.PMAddr(), 5*time.Second)
	defer cli.Close()
	obj, _ := cli.Create(1024)
	if err := obj.Write(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if n, err := obj.Read(buf, 5000); err != nil || n != 0 {
		t.Fatalf("read past end = %d, %v", n, err)
	}
}
