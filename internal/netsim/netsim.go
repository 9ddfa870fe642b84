// Package netsim is the simulated network fabric behind rpc.SimNetwork,
// the in-process transport of the cluster harness. Every node address owns
// a simulated NIC with a finite bandwidth; a transfer of n bytes between
// two nodes reserves serial transmission time on both NICs and is
// additionally charged a propagation latency. A node can be marked down,
// which is how the harness injects provider crashes.
//
// The model is intentionally simple — a serial link per NIC with FIFO
// queueing — so that aggregate bandwidth grows with the number of
// distinct node pairs while one NIC saturates on its own.
//
// Reservations are made against a virtual per-NIC clock (nextFree), so the
// computed delays reflect queueing even though callers sleep in real time.
package netsim

import (
	"errors"
	"sync"
	"time"
)

// ErrNodeDown is returned for transfers involving a failed node.
var ErrNodeDown = errors.New("netsim: node is down")

// Config describes the fabric characteristics.
type Config struct {
	// Latency is the one-way propagation delay added to every message.
	Latency time.Duration
	// BandwidthBps is the per-NIC bandwidth in bytes/second.
	// Zero means unlimited (no transmission delay).
	BandwidthBps float64
}

// Fabric is a shared-nothing collection of simulated NICs.
// The zero value is not usable; use NewFabric. A nil *Fabric is a valid
// "perfect network": all delays are zero and no node is ever down.
type Fabric struct {
	cfg Config

	mu   sync.Mutex
	nics map[string]*nic
	down map[string]bool
}

type nic struct {
	mu       sync.Mutex
	nextFree time.Time
}

// NewFabric creates a fabric with the given configuration.
func NewFabric(cfg Config) *Fabric {
	return &Fabric{
		cfg:  cfg,
		nics: make(map[string]*nic),
		down: make(map[string]bool),
	}
}

func (f *Fabric) nicFor(addr string) *nic {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nics[addr]
	if !ok {
		n = &nic{}
		f.nics[addr] = n
	}
	return n
}

// SetDown marks a node as failed (true) or healthy (false). Transfers
// involving a failed node return ErrNodeDown.
func (f *Fabric) SetDown(addr string, down bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.down[addr] = down
	f.mu.Unlock()
}

// IsDown reports whether addr is currently failed.
func (f *Fabric) IsDown(addr string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[addr]
}

// reserve books nbytes of serial transmission time on the NIC and returns
// how long from now the transmission completes.
func (n *nic) reserve(nbytes int, bps float64) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	if n.nextFree.Before(now) {
		n.nextFree = now
	}
	if bps > 0 {
		n.nextFree = n.nextFree.Add(time.Duration(float64(nbytes) / bps * float64(time.Second)))
	}
	return n.nextFree.Sub(now)
}

// Delay computes the completion delay for sending nbytes from one address
// to another, reserving NIC time on both sides. It does not sleep; the
// caller schedules delivery after the returned duration.
func (f *Fabric) Delay(from, to string, nbytes int) (time.Duration, error) {
	if f == nil {
		return 0, nil
	}
	f.mu.Lock()
	if f.down[from] || f.down[to] {
		f.mu.Unlock()
		return 0, ErrNodeDown
	}
	f.mu.Unlock()

	d := f.nicFor(from).reserve(nbytes, f.cfg.BandwidthBps)
	if dRecv := f.nicFor(to).reserve(nbytes, f.cfg.BandwidthBps); dRecv > d {
		d = dRecv
	}
	return d + f.cfg.Latency, nil
}
