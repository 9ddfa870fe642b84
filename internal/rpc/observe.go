package rpc

import "time"

// ServerObserver sees every dispatched request on a Server. Implementations
// must be safe for concurrent use; the server invokes them from per-request
// goroutines. bytesIn/bytesOut are request/response payload sizes (the
// response error text for failed calls). err is non-nil for error
// responses, including unknown methods; panicked marks a handler panic that
// the server recovered into an error response. traceID is the request's
// trace when it is sampled (0 when not), so the metrics plane can pin it
// as an exemplar.
type ServerObserver interface {
	ObserveRequest(method string, bytesIn, bytesOut int, dur time.Duration, err error, panicked bool, traceID uint64)
}

// ClientObserver sees every unary call a Client issues (round-trip latency
// including any transparent redial) plus each redial of a known-dead cached
// connection. Implementations must be safe for concurrent use.
type ClientObserver interface {
	ObserveCall(addr, method string, dur time.Duration, err error)
	ObserveRedial(addr string)
}

// SetObserver attaches o to the server (nil detaches). Safe to call before
// or after Start; when no observer is set the dispatch path does not even
// read the clock.
func (s *Server) SetObserver(o ServerObserver) {
	s.mu.Lock()
	s.observer = o
	s.mu.Unlock()
}

// SetObserver attaches o to the client (nil detaches). When no observer is
// set the call path does not read the clock.
func (c *Client) SetObserver(o ClientObserver) {
	c.mu.Lock()
	c.observer = o
	c.mu.Unlock()
}

func (c *Client) getObserver() ClientObserver {
	c.mu.Lock()
	o := c.observer
	c.mu.Unlock()
	return o
}
