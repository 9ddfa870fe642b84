// Package rpc provides the message-framed remote procedure call layer every
// BlobSeer process communicates through. Two interchangeable transports are
// provided:
//
//   - SimNetwork: an in-process transport routed through a netsim.Fabric,
//     used by the cluster harness to model a large testbed on one machine;
//   - TCPNetwork: a real TCP transport with length-prefixed framing, used by
//     the cmd/blobseerd daemon for multi-process deployments.
//
// The RPC model is deliberately minimal: unary calls carrying opaque
// wire-encoded payloads, dispatched by method name, with one reply per
// request. Responses may arrive out of order; a per-connection call table
// matches them up.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("rpc: closed")

// ErrUnknownAddr is returned when dialing an address nothing listens on.
var ErrUnknownAddr = errors.New("rpc: no listener at address")

// Conn is a bidirectional, message-oriented connection. Send and Recv are
// each safe for one concurrent caller; Send is additionally safe for many
// (it serializes internally).
//
// Send takes one message as segments: the message is the concatenation
// of segs with the first HeadRoom bytes of segs[0] left out. Those bytes
// are the transport's to overwrite (TCP writes its length prefix there,
// so a message of one segment goes out in one write), and segs[0] must
// hold them. The segments let a chunk payload travel from the buffer it
// already sits in, without a copy into the frame.
//
// Ownership: Send does not retain segs or any segment after it returns,
// so the caller may reuse or release them then, and not before. Recv
// returns a buffer per frame, taken from the wire buffer pool
// (wire.GetBuf), that the transport never touches again; the caller owns
// it, so decoders may alias it for as long as they like, and may hand it
// back with wire.PutBuf once nothing aliases it. A frame nobody hands
// back is left to the garbage collector. Both ends of the RPC layer rely
// on this to decode bodies in place instead of copying them out; see
// Client.CallCtx for who hands a reply frame back.
type Conn interface {
	Send(segs [][]byte) error
	Recv() ([]byte, error)
	Close() error
}

// HeadRoom is how many leading bytes of a sent message's first segment
// belong to the transport (see Conn).
const HeadRoom = 4

// frameLen returns the length of the message segs carries.
func frameLen(segs [][]byte) int {
	n := -HeadRoom
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// Listener accepts inbound connections at a stable address.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Network abstracts transport creation so the whole system can run over the
// simulated fabric or real sockets without code changes.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ---------------------------------------------------------------------------
// Simulated in-process network.

// SimNetwork routes connections between in-process endpoints, charging every
// message to a netsim.Fabric. A nil fabric is a perfect network.
type SimNetwork struct {
	fabric *netsim.Fabric

	mu        sync.Mutex
	listeners map[string]*simListener
}

// NewSimNetwork creates an empty simulated network over fabric (nil = no
// shaping).
func NewSimNetwork(fabric *netsim.Fabric) *SimNetwork {
	return &SimNetwork{fabric: fabric, listeners: make(map[string]*simListener)}
}

// Listen registers addr. Listening on a taken address is an error.
func (n *SimNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("rpc: address %q already in use", addr)
	}
	l := &simListener{net: n, addr: addr, backlog: make(chan *simConn, 128)}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to addr, failing if no listener is registered or the
// destination node is down. The caller's NIC is modeled as a shared
// per-process endpoint; use DialFrom to dial from a named node.
func (n *SimNetwork) Dial(addr string) (Conn, error) {
	return n.DialFrom("client@"+addr, addr)
}

// DialFrom connects to addr with the local endpoint attributed to the
// named node, so the fabric charges traffic to that node's NIC and a
// SetDown on it severs the connection. This is how distinct simulated
// machines (clients, providers) are modeled within one process.
func (n *SimNetwork) DialFrom(local, addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddr, addr)
	}
	if n.fabric.IsDown(addr) || n.fabric.IsDown(local) {
		return nil, netsim.ErrNodeDown
	}
	client := newSimConn(n, local, addr)
	server := newSimConn(n, addr, local)
	client.peer, server.peer = server, client
	select {
	case l.backlog <- server:
	default:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("rpc: listener %q backlog full", addr)
	}
	return client, nil
}

type simListener struct {
	net     *SimNetwork
	addr    string
	backlog chan *simConn

	mu     sync.Mutex
	closed bool
}

func (l *simListener) Accept() (Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *simListener) Addr() string { return l.addr }

func (l *simListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	close(l.backlog)
	return nil
}

// simConn delivers messages into the peer's unbounded inbox after the delay
// computed by the fabric. NIC reservation is monotonic per endpoint, so
// FIFO ordering per connection is preserved even though deliveries are
// scheduled with independent timers.
type simConn struct {
	net        *SimNetwork
	local      string
	remote     string
	peer       *simConn
	mu         sync.Mutex
	cond       *sync.Cond
	inbox      [][]byte
	closed     bool
	lastExpiry time.Time
}

func newSimConn(n *SimNetwork, local, remote string) *simConn {
	c := &simConn{net: n, local: local, remote: remote}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *simConn) Send(segs [][]byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()

	n := frameLen(segs)
	d, err := c.net.fabric.Delay(c.local, c.remote, n)
	if err != nil {
		return err
	}
	// Copy: the caller may reuse its segments after Send returns. The
	// copy is the frame the peer's Recv hands over, so it comes from the
	// pool exactly as a TCP receive buffer does.
	cp := wire.GetBuf(n)
	off := copy(cp, segs[0][HeadRoom:])
	for _, s := range segs[1:] {
		off += copy(cp[off:], s)
	}

	deliver := func() {
		p := c.peer
		p.mu.Lock()
		if !p.closed {
			p.inbox = append(p.inbox, cp)
			p.cond.Signal()
		}
		p.mu.Unlock()
	}
	// Enforce FIFO: never deliver before a previously scheduled message
	// on this connection, even when concurrent senders read the fabric's
	// delays and the clock in different orders.
	c.mu.Lock()
	expiry := time.Now().Add(d)
	if expiry.Before(c.lastExpiry) {
		expiry = c.lastExpiry
	}
	c.lastExpiry = expiry
	wait := time.Until(expiry)
	c.mu.Unlock()

	if wait <= 0 {
		deliver()
	} else {
		time.AfterFunc(wait, deliver)
	}
	return nil
}

func (c *simConn) Recv() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.inbox) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(c.inbox) == 0 {
		return nil, ErrClosed
	}
	msg := c.inbox[0]
	c.inbox = c.inbox[1:]
	return msg, nil
}

func (c *simConn) Close() error {
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if !wasClosed && c.peer != nil {
		p := c.peer
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	return nil
}
