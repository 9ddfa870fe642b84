package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrTimeout is returned when a call outlives the client's call timeout.
var ErrTimeout = errors.New("rpc: call timed out")

// RemoteError wraps an error string returned by a remote handler, so call
// sites can distinguish transport failures from application errors.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Client issues unary calls over cached connections, one per remote
// address. It is safe for concurrent use; concurrent calls to one address
// multiplex over a single connection.
type Client struct {
	network Network
	timeout time.Duration
	source  string

	mu       sync.Mutex
	conns    map[string]*clientConn
	observer ClientObserver
	tracer   *trace.Tracer
	redial   Backoff
}

// SourceDialer is implemented by transports that can attribute a
// connection's local endpoint to a named node (the simulated fabric).
type SourceDialer interface {
	DialFrom(local, addr string) (Conn, error)
}

// NewClient creates a client over the given network. timeout bounds each
// call end-to-end; zero means 30 seconds.
func NewClient(network Network, timeout time.Duration) *Client {
	return NewClientFrom(network, timeout, "")
}

// NewClientFrom is NewClient with the local endpoint attributed to the
// named source node on transports that support it (each simulated client
// machine gets its own NIC).
func NewClientFrom(network Network, timeout time.Duration, source string) *Client {
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	return &Client{network: network, timeout: timeout, source: source, conns: make(map[string]*clientConn)}
}

type pendingCall struct {
	done  chan struct{}
	resp  []byte
	frame []byte // the received frame resp aliases
	err   error
	// target carries the redirect destination when err is
	// errRedirectSentinel (resp then holds the remote error text).
	target string

	// land, when set, is the reply of a call whose payload fields may
	// land in its caller's buffers (see lander); decoded reports that the
	// read loop decoded it as it read the body off the socket, with
	// decodeErr the outcome and got the body's length. frame then holds
	// the reply's bytes that did not land, and resp nothing.
	land      wire.Message
	decoded   bool
	decodeErr error
	got       int
}

type clientConn struct {
	conn Conn
	addr string

	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	dead    bool
	deadErr error

	// recvLanding's, read loop only: the reply head, and readBody, which
	// reads the next bytes of the current frame from fc, keeping the
	// first failure in readErr.
	head     [replyHead]byte
	readBody func([]byte) error
	readErr  error
}

// Call is CallCtx with a background context (an untraced call).
func (c *Client) Call(addr, method string, req wire.Message, resp wire.Message) error {
	return c.CallCtx(context.Background(), addr, method, req, resp)
}

// CallCtx invokes method at addr, encoding req and decoding the reply into
// resp (which may be nil for calls with no interesting reply body). When
// ctx holds a span and a tracer is attached, the call gets a client-side
// RPC span (a child of the context's span) and the trace rides the
// request frame; a context without a span makes an untraced call.
//
// req is encoded straight into the request frame; its large payloads
// are sent from req's own slices (see encPool). resp is decoded in place:
// byte-slice fields may alias the response frame. A resp with a TakeFrame
// method is handed the frame (also when the decode fails), and whoever
// holds that resp returns the frame to the pool through it once done
// with its fields; any other frame is left to the garbage collector.
//
// A resp that names landing buffers (see lander) is decoded over TCP as
// its status-OK reply is read off the socket: each payload field coded
// with wire.Codec.Land that fits its buffer is read straight into it and
// aliases it, and the frame holds only the rest of the body. Otherwise —
// SimNetwork, an error reply, a payload longer than its buffer — the
// field aliases the frame as usual. Either way the buffers, and resp,
// are written only while the call runs: once CallCtx returns, on a
// timeout too, nothing writes them.
func (c *Client) CallCtx(ctx context.Context, addr, method string, req wire.Message, resp wire.Message) error {
	obs := c.getObserver()
	var act *trace.Active
	if _, ok := trace.FromContext(ctx); ok {
		_, act = c.Tracer().StartOp(ctx, method)
	}
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	call := &pendingCall{done: make(chan struct{})}
	if l, ok := resp.(lander); ok && l.Lands() {
		call.land = resp
	}
	sent, err := c.callAttempts(addr, method, req, call, act.Context(), obs)
	if obs != nil {
		obs.ObserveCall(addr, method, time.Since(start), err)
	}
	if act != nil {
		got := 0
		if err == nil {
			got = len(call.resp) + call.got
		}
		act.SetBytes(int64(sent + got))
		act.Finish(err)
	}
	if err != nil || resp == nil {
		return err
	}
	if call.decoded {
		err = call.decodeErr
	} else {
		err = wire.Unmarshal(call.resp, resp)
	}
	if t, ok := resp.(frameTaker); ok {
		t.TakeFrame(call.frame)
	}
	return err
}

// frameTaker is implemented by replies that hand their frame back to the
// pool (wire.PutBuf) once their holder is done with them.
type frameTaker interface{ TakeFrame(frame []byte) }

// lander is implemented by replies whose payload fields may be read
// straight into buffers their caller owns (the fields their field list
// codes with wire.Codec.Land): Lands reports whether this one names any.
type lander interface{ Lands() bool }

// maxRedials bounds how many fresh dials one call may burn through when
// the cached connection keeps dying before anything is sent.
const maxRedials = 4

// callAttempts completes call with the reply and returns the encoded
// request body length.
func (c *Client) callAttempts(addr, method string, req wire.Message, call *pendingCall, sc trace.SpanContext, obs ClientObserver) (int, error) {
	for attempt := 0; ; attempt++ {
		cc, err := c.getConn(addr)
		if err != nil {
			return 0, err
		}
		sent, err := cc.roundTrip(method, req, call, sc, c.timeout)
		if err != nil && !isAppError(err) {
			// Transport-level failure: drop the cached connection so the
			// next call re-dials (the peer may have restarted).
			c.dropConn(addr, cc)
			// When the cached connection was already known dead BEFORE the
			// request was sent, nothing reached the peer; redialing is
			// always safe and makes a restarted server reachable on the
			// first call instead of the second. The first redial is
			// immediate (the common restart case); subsequent ones back
			// off exponentially with jitter so a herd of callers does not
			// hammer a dead endpoint through a failover window.
			if errors.Is(err, errConnDead) && attempt < maxRedials {
				if attempt > 0 {
					time.Sleep(c.redial.Delay(attempt - 1))
				}
				if obs != nil {
					obs.ObserveRedial(addr)
				}
				continue
			}
		}
		return sent, err
	}
}

// isAppError reports whether err came from the remote handler (the
// transport worked; dropping the connection would be wrong).
func isAppError(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return true
	}
	var rd *Redirect
	return errors.As(err, &rd)
}

func (c *Client) getConn(addr string) (*clientConn, error) {
	c.mu.Lock()
	if cc, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	var conn Conn
	var err error
	if sd, ok := c.network.(SourceDialer); ok && c.source != "" {
		conn, err = sd.DialFrom(c.source, addr)
	} else {
		conn, err = c.network.Dial(addr)
	}
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, addr: addr, pending: make(map[uint64]*pendingCall)}

	c.mu.Lock()
	if existing, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	c.conns[addr] = cc
	c.mu.Unlock()

	go cc.readLoop()
	return cc, nil
}

func (c *Client) dropConn(addr string, cc *clientConn) {
	c.mu.Lock()
	if c.conns[addr] == cc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	cc.conn.Close()
}

// Close tears down all cached connections.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[string]*clientConn)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.conn.Close()
	}
}

// errConnDead marks a round trip refused because the connection had
// already failed before anything was sent — retrying on a fresh dial is
// side-effect free.
var errConnDead = errors.New("rpc: cached connection is dead")

// roundTrip encodes req straight into a pooled request frame, sends it,
// and waits for call to complete with the reply (see pendingCall). It
// returns the request body length. call may be reused for another
// attempt only when nothing was sent.
func (cc *clientConn) roundTrip(method string, req wire.Message, call *pendingCall, sc trace.SpanContext, timeout time.Duration) (int, error) {
	cc.mu.Lock()
	if cc.dead {
		err := cc.deadErr
		cc.mu.Unlock()
		return 0, fmt.Errorf("%w: %v", errConnDead, err)
	}
	id := cc.nextID.Add(1)
	lands := call.land != nil // read before the read loop may claim call
	cc.pending[id] = call
	cc.mu.Unlock()

	enc := getEncoder()
	enc.PutU8(kindRequest)
	enc.PutU64(id)
	enc.PutString(method)
	sent := enc.PutMessage(req)
	appendTraceTrailer(enc, sc)

	err := cc.conn.Send(enc.Segments())
	putEncoder(enc)
	if err != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return sent, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-call.done:
	case <-timer.C:
		cc.mu.Lock()
		_, waiting := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if waiting || !lands {
			return sent, fmt.Errorf("%w: %s at %s after %v", ErrTimeout, method, cc.addr, timeout)
		}
		select {
		case <-call.done:
		default:
			// The read loop has claimed the reply and is reading its
			// payloads into the caller's buffers, which must be let go
			// of before the caller gets them back: cut that read short.
			cc.conn.Close()
			<-call.done
			return sent, fmt.Errorf("%w: %s at %s after %v", ErrTimeout, method, cc.addr, timeout)
		}
	}
	switch call.err {
	case nil:
		return sent, nil
	case errRemoteSentinel:
		return sent, &RemoteError{Method: method, Msg: string(call.resp)}
	case errRedirectSentinel:
		return sent, &Redirect{Method: method, Target: call.target, Msg: string(call.resp)}
	}
	return sent, call.err
}

// errRemoteSentinel marks a completed call whose resp holds the remote
// error text rather than a payload.
var errRemoteSentinel = errors.New("rpc: remote error sentinel")

// errRedirectSentinel marks a completed call the remote redirected: target
// holds the destination, resp the remote error text.
var errRedirectSentinel = errors.New("rpc: redirect sentinel")

func (cc *clientConn) readLoop() {
	fc, _ := cc.conn.(frameConn)
	cc.readBody = func(p []byte) error {
		if err := fc.readFrame(p); err != nil {
			cc.readErr = err
			return err
		}
		return nil
	}
	for {
		var msg []byte
		var err error
		if fc != nil {
			msg, err = cc.recvLanding(fc)
		} else {
			msg, err = cc.conn.Recv()
		}
		if err != nil {
			cc.failAll(err)
			return
		}
		if msg != nil {
			cc.deliver(msg)
		}
	}
}

// frameConn is implemented by transports that hand a frame over piece by
// piece (TCP): nextFrame reads the next frame's length, and readFrame
// the next len(p) bytes of that frame into p, until all of it is read.
type frameConn interface {
	nextFrame() (int, error)
	readFrame(p []byte) error
}

// replyHead is a reply frame's fixed head: kind, call id, status and, for
// a status-OK reply, the body's length prefix.
const replyHead = 1 + 8 + 1 + 4

// recvLanding reads the next frame off fc. A status-OK reply to a call
// that names landing buffers is decoded into the call's reply as it is
// read, its payloads read straight from the socket into those buffers,
// and the call completed here: it returns a nil frame. Any other frame
// comes back whole, for deliver.
func (cc *clientConn) recvLanding(fc frameConn) ([]byte, error) {
	n, err := fc.nextFrame()
	if err != nil {
		return nil, err
	}
	h := cc.head[:min(n, replyHead)]
	if err := fc.readFrame(h); err != nil {
		return nil, err
	}
	var call *pendingCall
	if len(h) == replyHead && h[0] == kindResponse && h[9] == statusOK &&
		int(binary.LittleEndian.Uint32(h[10:])) == n-replyHead {
		id := binary.LittleEndian.Uint64(h[1:])
		cc.mu.Lock()
		if c := cc.pending[id]; c != nil && c.land != nil {
			// Claimed: from here on this loop completes the call, also
			// when a read fails.
			call = c
			delete(cc.pending, id)
		}
		cc.mu.Unlock()
	}
	if call == nil {
		return readRest(fc, n, h)
	}
	rest, err := wire.UnmarshalFrom(cc.readBody, n-replyHead, call.land)
	if cc.readErr != nil {
		call.fail(cc.readErr)
		return nil, cc.readErr
	}
	call.frame, call.decoded, call.decodeErr, call.got = rest, true, err, n-replyHead
	close(call.done)
	return nil, nil
}

// readRest reads the rest of an n-byte frame whose first len(head) bytes
// are read already, returning the whole frame.
func readRest(fc frameConn, n int, head []byte) ([]byte, error) {
	msg := wire.GetBuf(n)
	copy(msg, head)
	if err := fc.readFrame(msg[len(head):]); err != nil {
		wire.PutBuf(msg)
		return nil, err
	}
	return msg, nil
}

// deliver completes the pending call a reply frame's id names, if any is
// still waiting. A malformed frame is dropped.
func (cc *clientConn) deliver(msg []byte) {
	dec := wire.NewDecoder(msg)
	kind := dec.U8()
	id := dec.U64()
	status := dec.U8()
	var target string
	if status == statusRedirect {
		target = dec.String() // String copies; safe past this frame
	}
	body := dec.Bytes()
	if dec.Err() != nil || kind != kindResponse {
		return
	}
	cc.mu.Lock()
	call := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if call == nil {
		return // timed out already
	}
	// body aliases msg, a buffer Recv hands over for good: the caller
	// takes both without a copy.
	call.resp, call.frame = body, msg
	switch status {
	case statusOK:
	case statusRedirect:
		call.target = target
		call.err = errRedirectSentinel
	default:
		call.err = errRemoteSentinel
	}
	close(call.done)
}

// fail completes a call with err.
func (call *pendingCall) fail(err error) {
	call.err = err
	close(call.done)
}

func (cc *clientConn) failAll(err error) {
	cc.mu.Lock()
	cc.dead = true
	cc.deadErr = err
	pending := cc.pending
	cc.pending = make(map[uint64]*pendingCall)
	cc.mu.Unlock()
	for _, call := range pending {
		call.fail(err)
	}
}
