package main

import (
	"bytes"

	"repro/internal/workload"
)

// pattern is the content every workload writes and expects to read back. A
// blob's byte at offset o holds ref[(o+shift) mod len(ref)], with ref filled
// once by workload.Fill from the run's seed. The period is 65 chunks of
// 64 KiB, so neighbouring chunks differ and no chunk-aligned read is
// periodic in the chunk size.
//
// Reads are checked against ref with bytes.Equal rather than
// workload.Verify: Verify regenerates the expected bytes at about 1.5 ns
// per byte, which at bulk_read's rate would cost the two-core box half a
// core inside the generator and perturb the daemons it shares them with.
type pattern struct{ ref []byte }

const patternLen = 65 * 64 << 10

func newPattern(seed uint64) *pattern {
	p := &pattern{ref: make([]byte, patternLen)}
	workload.Fill(p.ref, seed)
	return p
}

// fill writes the expected content of [off, off+len(dst)) into dst.
func (p *pattern) fill(dst []byte, off, shift uint64) {
	pos := int((off + shift) % patternLen)
	for len(dst) > 0 {
		n := copy(dst, p.ref[pos:])
		dst = dst[n:]
		pos = 0
	}
}

// verify reports whether got is the expected content of [off, off+len(got)).
func (p *pattern) verify(got []byte, off, shift uint64) bool {
	pos := int((off + shift) % patternLen)
	for len(got) > 0 {
		n := min(len(got), patternLen-pos)
		if !bytes.Equal(got[:n], p.ref[pos:pos+n]) {
			return false
		}
		got = got[n:]
		pos = 0
	}
	return true
}
