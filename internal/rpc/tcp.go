package rpc

import (
	"bufio"
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

type tcpConn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex
	w  *bufio.Writer
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{
		c: c,
		r: bufio.NewReaderSize(c, 64<<10),
		w: bufio.NewWriterSize(c, 64<<10),
	}
}

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(msg))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	t.wm.Lock()
	defer t.wm.Unlock()
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(msg); err != nil {
		return err
	}
	return t.w.Flush()
}

func (t *tcpConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("rpc: inbound frame of %d bytes exceeds limit", n)
	}
	msg := wire.GetBuf(int(n))
	if _, err := io.ReadFull(t.r, msg); err != nil {
		wire.PutBuf(msg)
		return nil, err
	}
	return msg, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }
