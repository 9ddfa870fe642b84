package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestNilFabricIsPerfect(t *testing.T) {
	var f *Fabric
	d, err := f.Delay("a", "b", 1<<20)
	if err != nil || d != 0 {
		t.Fatalf("nil fabric: d=%v err=%v, want 0,nil", d, err)
	}
	if f.IsDown("a") {
		t.Error("nil fabric reports node down")
	}
	f.SetDown("a", true) // must not panic
}

func TestDelayScalesWithSize(t *testing.T) {
	f := NewFabric(Config{BandwidthBps: 1e6}) // 1 MB/s
	d1, err := f.Delay("a", "b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	// a fresh pair of NICs: second transfer queues behind the first
	d2, err := f.Delay("a", "b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d1 < 900*time.Microsecond || d1 > 5*time.Millisecond {
		t.Errorf("d1 = %v, want ~1ms", d1)
	}
	if d2 <= d1 {
		t.Errorf("queueing not modeled: d1=%v d2=%v", d1, d2)
	}
}

func TestLatencyAdded(t *testing.T) {
	f := NewFabric(Config{Latency: 10 * time.Millisecond})
	d, err := f.Delay("a", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d < 10*time.Millisecond {
		t.Errorf("d = %v, want >= 10ms", d)
	}
}

func TestDownNode(t *testing.T) {
	f := NewFabric(Config{})
	f.SetDown("b", true)
	if _, err := f.Delay("a", "b", 10); err != ErrNodeDown {
		t.Errorf("to down node: err = %v, want ErrNodeDown", err)
	}
	if _, err := f.Delay("b", "a", 10); err != ErrNodeDown {
		t.Errorf("from down node: err = %v, want ErrNodeDown", err)
	}
	f.SetDown("b", false)
	if _, err := f.Delay("a", "b", 10); err != nil {
		t.Errorf("after recovery: err = %v", err)
	}
}

func TestConcurrentDelaySafe(t *testing.T) {
	f := NewFabric(Config{BandwidthBps: 1e9, Latency: time.Microsecond})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := f.Delay("x", "y", 1000); err != nil {
					t.Errorf("delay %d: %v", j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Aggregate bandwidth across distinct NIC pairs must exceed a single pair's:
// the core scaling property every striping experiment relies on.
func TestAggregateBandwidthScales(t *testing.T) {
	f := NewFabric(Config{BandwidthBps: 1e6})
	// one pair, 10 transfers of 10KB => ~100ms serial on each NIC
	var single time.Duration
	for i := 0; i < 10; i++ {
		d, _ := f.Delay("c0", "p0", 10000)
		single = d
	}
	// ten disjoint pairs, 1 transfer each => each ~10ms
	var spread time.Duration
	for i := 0; i < 10; i++ {
		d, _ := f.Delay(string(rune('d'+i))+"-src", string(rune('d'+i))+"-dst", 10000)
		if d > spread {
			spread = d
		}
	}
	if spread*2 >= single {
		t.Errorf("striping gave no speedup: spread=%v single=%v", spread, single)
	}
}

// A saturated NIC queues transfers behind each other; it never refuses
// one.
func TestBacklogUnboundedByDefault(t *testing.T) {
	f := NewFabric(Config{BandwidthBps: 1e3})
	for i := 0; i < 5; i++ {
		if _, err := f.Delay("a", "b", 1000); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
}
