package rpc

import (
	"sync"

	"repro/internal/wire"
)

// Framing-buffer pool for the client and server send paths. Every request
// and every response is encoded straight into one of these frames
// (wire.Encoder.PutMessage), after HeadRoom bytes kept for the transport's
// length prefix; without pooling that is one fresh allocation per request
// AND per response, which the garbage collector pays for on the hot path.
//
// A pooled encoder references chunk payloads (wire.Codec.Bytes fields) of
// at least refFrom bytes instead of copying them, so a frame is sent as
// segments (Encoder.Segments, Conn.Send): the header runs from the frame,
// the payloads from the caller's slices or the reply's pooled read
// buffers. Neither transport keeps a segment past Send (SimNetwork copies
// them before scheduling delivery, tcpConn writes them synchronously), so
// an encoder is returned to the pool, and a reply's buffers released,
// once Send returns — not before.
var encPool = sync.Pool{
	New: func() any {
		e := wire.NewEncoder(256)
		e.ReferenceFrom(refFrom)
		return e
	},
}

// refFrom is the smallest payload a frame references rather than copies.
// Below it one copy costs less than the extra segment: a 4 KiB ranged
// chunk reply still goes out as one contiguous frame in one write.
const refFrom = 32 << 10

// getEncoder returns a pooled encoder holding only the frame's head room.
func getEncoder() *wire.Encoder {
	e := encPool.Get().(*wire.Encoder)
	resetFrame(e)
	return e
}

// resetFrame empties e down to the frame's head room.
func resetFrame(e *wire.Encoder) {
	e.Reset()
	e.PutU32(0) // HeadRoom: the transport writes its length prefix here
}

// maxPooledFrame keeps encoders that grew to giant frames (bodies with
// large fields that are not referenced) out of the pool, so one
// multi-megabyte transfer doesn't pin that much memory behind every
// pooled encoder.
const maxPooledFrame = 1 << 20

// putEncoder recycles an encoder, dropping its references. Callers must
// not retain its segments afterwards.
func putEncoder(e *wire.Encoder) {
	e.Reset()
	if cap(e.Bytes()) > maxPooledFrame {
		return
	}
	encPool.Put(e)
}
