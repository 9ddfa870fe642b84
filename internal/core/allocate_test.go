package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pmanager"
)

// TestAllocateRefusesOversizedCount: a chunk count no allocation reply
// could carry is refused before any RPC, never truncated to 32 bits.
func TestAllocateRefusesOversizedCount(t *testing.T) {
	for _, n := range []int{pmanager.MaxAllocateChunks + 1, 1<<32 + 1} {
		if _, err := (&Client{}).allocate(context.Background(), n, 1, nil); !errors.Is(err, pmanager.ErrTooManyChunks) {
			t.Fatalf("allocate(%d) = %v, want ErrTooManyChunks", n, err)
		}
	}
}
