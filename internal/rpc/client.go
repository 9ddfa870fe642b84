package rpc

import (
	"context"
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
}

type clientConn struct {
	conn Conn
	addr string

	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	dead    bool
	deadErr error
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
// req is encoded straight into the request frame. resp is decoded in
// place: byte-slice fields may alias the response frame. A resp with a
// TakeFrame method is handed the frame (also when the decode fails), and
// whoever holds that resp returns the frame to the pool through it once
// done with its fields; any other frame is left to the garbage collector.
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
	raw, frame, sent, err := c.callAttempts(addr, method, req, act.Context(), obs)
	if obs != nil {
		obs.ObserveCall(addr, method, time.Since(start), err)
	}
	if act != nil {
		act.SetBytes(int64(sent + len(raw)))
		act.Finish(err)
	}
	if err != nil || resp == nil {
		return err
	}
	err = wire.Unmarshal(raw, resp)
	if t, ok := resp.(frameTaker); ok {
		t.TakeFrame(frame)
	}
	return err
}

// frameTaker is implemented by replies that hand their frame back to the
// pool (wire.PutBuf) once their holder is done with them.
type frameTaker interface{ TakeFrame(frame []byte) }

// maxRedials bounds how many fresh dials one call may burn through when
// the cached connection keeps dying before anything is sent.
const maxRedials = 4

// callAttempts returns the reply body, the frame it aliases, and the
// encoded request body length.
func (c *Client) callAttempts(addr, method string, req wire.Message, sc trace.SpanContext, obs ClientObserver) ([]byte, []byte, int, error) {
	for attempt := 0; ; attempt++ {
		cc, err := c.getConn(addr)
		if err != nil {
			return nil, nil, 0, err
		}
		raw, frame, sent, err := cc.roundTrip(method, req, sc, c.timeout)
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
		return raw, frame, sent, err
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
// and waits for the reply body and the frame it aliases. It also returns
// the request body length.
func (cc *clientConn) roundTrip(method string, req wire.Message, sc trace.SpanContext, timeout time.Duration) ([]byte, []byte, int, error) {
	cc.mu.Lock()
	if cc.dead {
		err := cc.deadErr
		cc.mu.Unlock()
		return nil, nil, 0, fmt.Errorf("%w: %v", errConnDead, err)
	}
	id := cc.nextID.Add(1)
	call := &pendingCall{done: make(chan struct{})}
	cc.pending[id] = call
	cc.mu.Unlock()

	enc := getEncoder()
	enc.PutU8(kindRequest)
	enc.PutU64(id)
	enc.PutString(method)
	sent := enc.PutMessage(req)
	appendTraceTrailer(enc, sc)

	err := cc.conn.Send(enc.Bytes())
	putEncoder(enc)
	if err != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, nil, sent, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-call.done:
		if call.err != nil {
			if call.err == errRemoteSentinel {
				return nil, nil, sent, &RemoteError{Method: method, Msg: string(call.resp)}
			}
			if call.err == errRedirectSentinel {
				return nil, nil, sent, &Redirect{Method: method, Target: call.target, Msg: string(call.resp)}
			}
			return nil, nil, sent, call.err
		}
		return call.resp, call.frame, sent, nil
	case <-timer.C:
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, nil, sent, fmt.Errorf("%w: %s at %s after %v", ErrTimeout, method, cc.addr, timeout)
	}
}

// errRemoteSentinel marks a completed call whose resp holds the remote
// error text rather than a payload.
var errRemoteSentinel = errors.New("rpc: remote error sentinel")

// errRedirectSentinel marks a completed call the remote redirected: target
// holds the destination, resp the remote error text.
var errRedirectSentinel = errors.New("rpc: redirect sentinel")

func (cc *clientConn) readLoop() {
	for {
		msg, err := cc.conn.Recv()
		if err != nil {
			cc.failAll(err)
			return
		}
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
			continue
		}
		cc.mu.Lock()
		call, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
		}
		cc.mu.Unlock()
		if !ok {
			continue // timed out already
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
}

func (cc *clientConn) failAll(err error) {
	cc.mu.Lock()
	cc.dead = true
	cc.deadErr = err
	pending := cc.pending
	cc.pending = make(map[uint64]*pendingCall)
	cc.mu.Unlock()
	for _, call := range pending {
		call.err = err
		close(call.done)
	}
}
