package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/wire"
)

// MaxFrame bounds a single TCP frame, and so every RPC body. Chunks are at
// most a few MiB in any sane configuration; 256 MiB leaves ample headroom
// while bounding memory.
const MaxFrame = 256 << 20

// TCPNetwork implements Network over real TCP sockets with 4-byte
// big-endian length framing. Addresses are standard host:port strings;
// Listen on ":0" picks a free port, reported by Listener.Addr.
type TCPNetwork struct{}

// NewTCPNetwork returns the TCP transport.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

// Listen starts a TCP listener on addr.
func (n *TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: tcp listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial opens a TCP connection to addr.
func (n *TCPNetwork) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: tcp dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

// stageSize is a connection's receive staging buffer. It holds a whole
// small frame — a 4 KiB ranged chunk reply with its headers among them —
// so one read takes such a frame in; the bulk of a larger frame is read
// from the socket straight into its destination.
const stageSize = 16 << 10

// stageAhead bounds how far a read reaches past the end of a frame larger
// than the stage into whatever follows it: enough for the next frame's
// head, little enough that a large frame after it is barely staged.
const stageAhead = 512

// tcpConn frames messages over a TCP socket. Sends write the length
// prefix and the segments in one write (writev for several); receives
// go through a small staging buffer that reads never overfill, so a
// large body lands in its destination with one copy, the kernel's.
type tcpConn struct {
	c net.Conn

	// Receive side, one reader at a time (see Conn): stage[r:w] is read
	// from the socket but not consumed; rest is what is left of the
	// current frame, staged bytes included; ahead is how far a read may
	// reach past it.
	stage       []byte
	r, w        int
	rest, ahead int

	wm   sync.Mutex // serializes Send
	iov  [][]byte   // Send's segment list, reused
	bufs net.Buffers
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, stage: make([]byte, stageSize), ahead: stageSize}
}

func (t *tcpConn) Send(segs [][]byte) error {
	n := frameLen(segs)
	if n > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(segs[0], uint32(n))
	t.wm.Lock()
	defer t.wm.Unlock()
	if len(segs) == 1 {
		_, err := t.c.Write(segs[0])
		return err
	}
	// WriteTo consumes the list it writes, so it gets a copy that keeps
	// iov's backing array for the next send.
	t.iov = append(t.iov[:0], segs...)
	t.bufs = t.iov
	_, err := t.bufs.WriteTo(t.c)
	clear(t.iov) // hold no segment past Send
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	n, err := t.nextFrame()
	if err != nil {
		return nil, err
	}
	msg := wire.GetBuf(n)
	if err := t.readFrame(msg); err != nil {
		wire.PutBuf(msg)
		return nil, err
	}
	return msg, nil
}

// nextFrame reads the next frame's length prefix and returns the frame's
// length; readFrame then reads the frame, all of it, before the next
// nextFrame. A frame larger than the stage predicts another: until the
// next prefix, reads reach only stageAhead bytes past this frame.
func (t *tcpConn) nextFrame() (int, error) {
	if err := t.fill(4); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(t.stage[t.r:])
	t.r += 4
	if n > MaxFrame {
		return 0, fmt.Errorf("rpc: inbound frame of %d bytes exceeds limit", n)
	}
	t.rest, t.ahead = int(n), len(t.stage)
	if t.rest > len(t.stage) {
		t.ahead = stageAhead
	}
	return t.rest, nil
}

// readFrame reads the next len(p) bytes of the current frame into p:
// staged bytes are copied, a short remainder is staged first, and a long
// one is read from the socket straight into p.
func (t *tcpConn) readFrame(p []byte) error {
	if len(p) > t.rest {
		return fmt.Errorf("rpc: read of %d bytes past a frame with %d left", len(p), t.rest)
	}
	k := copy(p, t.stage[t.r:t.w])
	t.r += k
	t.rest -= k
	p = p[k:]
	if len(p) > len(t.stage)/2 {
		t.rest -= len(p)
		_, err := io.ReadFull(t.c, p)
		return err
	}
	if err := t.fill(len(p)); err != nil {
		return err
	}
	t.r += copy(p, t.stage[t.r:t.w])
	t.rest -= len(p)
	return nil
}

// fill stages at least n unread bytes (n <= len(t.stage)). Each read
// takes what the socket has, up to the end of the current frame plus
// t.ahead bytes of what follows it.
func (t *tcpConn) fill(n int) error {
	if t.r == t.w {
		t.r, t.w = 0, 0
	} else if len(t.stage)-t.r < n {
		t.w = copy(t.stage, t.stage[t.r:t.w])
		t.r = 0
	}
	for t.w-t.r < n {
		want := max(n, t.rest) - (t.w - t.r) + t.ahead
		m, err := t.c.Read(t.stage[t.w:min(len(t.stage), t.w+want)])
		t.w += m
		if err != nil && t.w-t.r < n {
			return err
		}
	}
	return nil
}

func (t *tcpConn) Close() error { return t.c.Close() }
