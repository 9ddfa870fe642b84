// Package workload generates deterministic, seed-derived payloads for
// clients to write and verify, and the access patterns of the paper's
// evaluation: disjoint per-client partitions of a huge blob (§IV-A/C),
// random fine-grain windows over a sky image (the supernovae application
// of §IV-A), and synthetic text, log and key corpora of the kind the
// data-intensive applications of §IV-D consume.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Range is a byte range of a blob.
type Range struct {
	Off uint64
	Len uint64
}

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

// Partition splits [0, totalBytes) into n contiguous ranges, aligned to
// align (the last range absorbs the remainder). Disjoint per-client
// partitions are the concurrency pattern of the read/write scaling
// experiments.
func Partition(totalBytes uint64, n int, align uint64) []Range {
	if n <= 0 || totalBytes == 0 {
		return nil
	}
	if align == 0 {
		align = 1
	}
	per := totalBytes / uint64(n) / align * align
	if per == 0 {
		per = align
	}
	out := make([]Range, 0, n)
	var off uint64
	for i := 0; i < n && off < totalBytes; i++ {
		length := per
		if i == n-1 || off+length > totalBytes {
			length = totalBytes - off
		}
		out = append(out, Range{Off: off, Len: length})
		off += length
	}
	return out
}

// RandomWindows produces count random grain-aligned windows of the given
// size within [0, totalBytes) — the supernovae sky-scanning pattern.
func RandomWindows(rng *rand.Rand, totalBytes, window, grain uint64, count int) []Range {
	if totalBytes < window || window == 0 {
		return nil
	}
	if grain == 0 {
		grain = 1
	}
	slots := (totalBytes - window) / grain
	out := make([]Range, count)
	for i := range out {
		var off uint64
		if slots > 0 {
			off = uint64(rng.Int63n(int64(slots+1))) * grain
		}
		out[i] = Range{Off: off, Len: window}
	}
	return out
}

// vocabulary is a fixed word list for synthetic corpora; the Zipf sampling
// over it produces realistic token frequency skew for word count.
var vocabulary = []string{
	"the", "data", "storage", "chunk", "version", "blob", "write", "read",
	"append", "provider", "metadata", "tree", "segment", "snapshot",
	"throughput", "concurrency", "grid", "cloud", "node", "client",
	"replica", "stripe", "lock", "free", "scale", "map", "reduce",
	"supernova", "sky", "index", "crawl", "log", "record", "page",
}

// TextCorpus generates n lines of space-separated words with Zipf-skewed
// frequencies, deterministic in seed.
func TextCorpus(n int, wordsPerLine int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(vocabulary)-1))
	var sb strings.Builder
	sb.Grow(n * wordsPerLine * 8)
	for i := 0; i < n; i++ {
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocabulary[zipf.Uint64()])
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// LogCorpus generates n log lines where roughly one in errEvery lines
// contains the marker "ERROR" — the distributed-grep input.
func LogCorpus(n, errEvery int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.Grow(n * 32)
	for i := 0; i < n; i++ {
		if errEvery > 0 && rng.Intn(errEvery) == 0 {
			fmt.Fprintf(&sb, "ts=%08d level=ERROR req=%d failed\n", i, rng.Intn(1<<20))
		} else {
			fmt.Fprintf(&sb, "ts=%08d level=info req=%d ok\n", i, rng.Intn(1<<20))
		}
	}
	return []byte(sb.String())
}

// KeyCorpus generates n random fixed-width keys, one per line — the
// distributed-sort input.
func KeyCorpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.Grow(n * 17)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%016x\n", rng.Uint64())
	}
	return []byte(sb.String())
}
