package rpc

import (
	"sync"

	"repro/internal/wire"
)

// Framing-buffer pool for the client and server send paths. Every request
// and every response body is encoded straight into one of these frames
// (wire.Encoder.PutMessage) — the only copy of the body on the send side;
// without pooling that is one fresh allocation per request AND per
// response, which the garbage collector pays for on the hot path. Both
// transports copy the buffer out during Send (SimNetwork copies before
// scheduling delivery, tcpConn writes and flushes synchronously), so an
// encoder can be returned to the pool as soon as Send returns.
var encPool = sync.Pool{
	New: func() any { return wire.NewEncoder(256) },
}

// getEncoder returns an empty encoder from the pool.
func getEncoder() *wire.Encoder {
	e := encPool.Get().(*wire.Encoder)
	e.Reset()
	return e
}

// maxPooledFrame keeps encoders that grew to giant frames (whole-chunk
// payloads) out of the pool, so one multi-megabyte transfer doesn't pin
// that much memory behind every pooled encoder.
const maxPooledFrame = 1 << 20

// putEncoder recycles an encoder. Callers must not retain e.Bytes()
// afterwards.
func putEncoder(e *wire.Encoder) {
	if cap(e.Bytes()) > maxPooledFrame {
		return
	}
	encPool.Put(e)
}
