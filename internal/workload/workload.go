// Package workload generates deterministic, seed-derived payloads for
// clients to write and verify.
package workload

// Fill writes a deterministic pattern derived from seed into p, so any
// reader can verify content integrity without shipping the original.
func Fill(p []byte, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
}

// Verify reports whether p matches Fill(_, seed).
func Verify(p []byte, seed uint64) bool {
	want := make([]byte, len(p))
	Fill(want, seed)
	for i := range p {
		if p[i] != want[i] {
			return false
		}
	}
	return true
}
