// Chunk content digests. Chunks are immutable (a (blob, version, index)
// triple is written at most once), so a digest computed by the writer at
// Put time stays valid for the chunk's whole life and can be re-checked
// on every read and by the background scrubber. The algorithm identifier
// travels with the sum everywhere (wire, sidecar WAL) so the scheme can
// evolve without a flag day.
package chunk

import (
	"hash/crc32"

	"repro/internal/wire"
)

// Digest algorithms. Zero means "no digest recorded" (legacy chunks
// written before digests existed); readers treat those as unverifiable
// rather than corrupt, and providers backfill them on first clean read.
const (
	DigestNone   uint8 = 0
	DigestCRC32C uint8 = 1 // CRC-32C (Castagnoli); SSE4.2-accelerated by hash/crc32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is a chunk content checksum plus the algorithm that produced it.
type Digest struct {
	Algo uint8
	Sum  uint32
}

// Wire codes the digest in every message that carries one.
func (d *Digest) Wire(c *wire.Codec) {
	c.U8(&d.Algo)
	c.U32(&d.Sum)
}

// DigestOf computes the current-generation digest of data.
func DigestOf(data []byte) Digest {
	return Digest{Algo: DigestCRC32C, Sum: crc32.Checksum(data, castagnoli)}
}

// IsZero reports whether no digest was recorded.
func (d Digest) IsZero() bool { return d.Algo == DigestNone }

// Verify checks data against the digest. A zero digest verifies anything
// (legacy chunk, nothing to check against), and so does an algorithm this
// build does not know — rejecting bytes it cannot check would turn every
// mixed-version deployment into an outage. Only a known algorithm with a
// mismatched sum fails.
func (d Digest) Verify(data []byte) bool {
	switch d.Algo {
	case DigestCRC32C:
		return crc32.Checksum(data, castagnoli) == d.Sum
	default:
		return true
	}
}
