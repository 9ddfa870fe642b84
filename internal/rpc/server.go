package rpc

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Frame kinds inside a transport message.
const (
	kindRequest  = 0
	kindResponse = 1
)

// Response status codes.
const (
	statusOK       = 0
	statusError    = 1
	statusRedirect = 2
)

// Handler processes one request payload and returns the response payload.
// Returning an error sends a status-error frame; the error text crosses the
// wire verbatim. The payload aliases the inbound frame, which the handler
// owns (see Conn.Recv), so it may be retained.
type Handler func(payload []byte) ([]byte, error)

// msgHandler is what the server dispatches to: the response comes back as
// a message, which dispatch encodes straight into the response frame.
type msgHandler func(payload []byte) (wire.Message, error)

// Server dispatches inbound requests to registered handlers. Each accepted
// connection gets a reader goroutine; each request runs in its own
// goroutine so a slow handler never blocks the connection.
type Server struct {
	network Network
	addr    string

	mu       sync.Mutex
	handlers map[string]msgHandler
	observer ServerObserver
	tracer   *trace.Tracer
	gate     func(method string) error
	listener Listener
	conns    map[Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server that will listen on addr when Start is called.
func NewServer(network Network, addr string) *Server {
	return &Server{
		network:  network,
		addr:     addr,
		handlers: make(map[string]msgHandler),
		conns:    make(map[Conn]struct{}),
	}
}

// Handle registers a raw handler for the given method name: its reply
// bytes travel as a wire.Raw body. It must be called before Start;
// registering twice for one method panics (a programming error).
func (s *Server) Handle(method string, h Handler) {
	s.register(method, func(payload []byte) (wire.Message, error) {
		out, err := h(payload)
		if err != nil {
			return nil, err
		}
		raw := wire.Raw(out)
		return &raw, nil
	})
}

// HandleMsg registers a typed handler: req is decoded into a fresh value
// produced by newReq (decoders may alias the request frame), and the
// returned message is encoded straight into the response frame.
func HandleMsg[Req wire.Message, Resp wire.Message](s *Server, method string, newReq func() Req, h func(Req) (Resp, error)) {
	s.register(method, func(payload []byte) (wire.Message, error) {
		req := newReq()
		if err := wire.Unmarshal(payload, req); err != nil {
			return nil, err
		}
		resp, err := h(req)
		return resp, err
	})
}

func (s *Server) register(method string, h msgHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %q", method))
	}
	s.handlers[method] = h
}

// SetGate installs a per-request admission check, run before every
// handler with the method name. A non-nil error is returned to the caller
// without invoking the handler — the HA leader gate redirecting a
// follower's clients. The gate decides per method, so a server can keep
// some methods (discovery, replication) always answerable.
func (s *Server) SetGate(gate func(method string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = gate
}

// Start begins listening and serving. It returns once the listener is
// established; serving continues in background goroutines until Close.
func (s *Server) Start() error {
	l, err := s.network.Listen(s.addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(l)
	return nil
}

// Addr returns the listener's address (useful with TCP ":0").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return s.listener.Addr()
	}
	return s.addr
}

func (s *Server) acceptLoop(l Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		dec := wire.NewDecoder(msg)
		kind := dec.U8()
		id := dec.U64()
		method := dec.String()
		payload := dec.Bytes()
		if dec.Err() != nil || kind != kindRequest {
			log.Printf("rpc: dropping malformed frame on %s", s.addr)
			continue
		}
		// The request may carry a trace-context trailer after the payload;
		// frames from older peers simply don't, and decode as trace-free.
		sc := decodeTraceTrailer(dec)
		// payload aliases msg, a fresh buffer Recv hands over for good, so
		// the handler owns it without a copy.
		go s.dispatch(conn, id, method, payload, sc)
	}
}

func (s *Server) dispatch(conn Conn, id uint64, method string, payload []byte, sc trace.SpanContext) {
	s.mu.Lock()
	h, ok := s.handlers[method]
	obs := s.observer
	tracer := s.tracer
	gate := s.gate
	s.mu.Unlock()

	act := tracer.StartRemote(sc, method) // trace-free frames get a flight-recorder-only span
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	enc := getEncoder()
	putResponseHeader(enc, id)
	var out int
	var rel releaser
	var err error
	var panicked bool
	if !ok {
		err = fmt.Errorf("rpc: no handler for method %q", method)
	} else {
		if gate != nil {
			err = gate(method)
		}
		if err == nil {
			out, rel, err, panicked = invoke(h, method, payload, enc)
		}
	}
	if err != nil {
		// Drop whatever a failed or panicking encode left behind.
		resetFrame(enc)
		putResponseHeader(enc, id)
		var rd redirector
		if errors.As(err, &rd) {
			// The handler knows who owns this request (a deposed leader
			// pointing at its successor): ship the target as structure,
			// not prose, so the client can follow it.
			enc.PutU8(statusRedirect)
			enc.PutString(rd.RedirectTarget())
		} else {
			enc.PutU8(statusError)
		}
		enc.PutString(err.Error())
	}
	if obs != nil {
		obsOut := out
		if err != nil {
			obsOut = len(err.Error())
		}
		var traceID uint64
		if act.Sampled() {
			traceID = act.TraceID()
		}
		obs.ObserveRequest(method, len(payload), obsOut, time.Since(start), err, panicked, traceID)
	}
	if act != nil {
		act.SetBytes(int64(len(payload) + out))
		act.Finish(err)
	}
	// A send failure means the connection died; the client observes it
	// directly. The frame may reference the reply's pooled buffers, so
	// they go back only once Send is done with them.
	_ = conn.Send(enc.Segments())
	putEncoder(enc)
	if rel != nil {
		rel.Release()
	}
}

func putResponseHeader(enc *wire.Encoder, id uint64) {
	enc.PutU8(kindResponse)
	enc.PutU64(id)
}

// invoke runs h and encodes its reply into enc as a status-OK body,
// returning the body length and, for a reply that implements releaser
// (one carrying pooled buffers), the reply: the frame may reference
// those buffers, so the caller releases it once the frame is sent. A
// panic — in the handler or in its reply's encoder — becomes a
// status-error response instead of killing the process (and, with it,
// every connection the server holds); a reply from a failed or panicking
// handler is left to the garbage collector. The panic still reaches the
// log — it is a server bug — but one poisoned request must not take down
// unrelated callers.
func invoke(h msgHandler, method string, payload []byte, enc *wire.Encoder) (n int, rel releaser, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			n, rel, err, panicked = 0, nil, fmt.Errorf("rpc: handler for %q panicked: %v", method, r), true
			log.Printf("rpc: recovered handler panic in %q: %v\n%s", method, r, debug.Stack())
		}
	}()
	resp, err := h(payload)
	if err != nil {
		return 0, nil, err, false
	}
	enc.PutU8(statusOK)
	n = enc.PutMessage(resp)
	rel, _ = resp.(releaser)
	return n, rel, nil, false
}

// releaser is implemented by replies that borrow pooled buffers until
// their frame is sent.
type releaser interface{ Release() }

// Close stops the listener and tears down every open connection, then waits
// for serving goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	l := s.listener
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
