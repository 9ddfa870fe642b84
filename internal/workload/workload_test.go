package workload

import (
	"bytes"
	"testing"
)

func TestFillVerify(t *testing.T) {
	p := make([]byte, 1000)
	Fill(p, 42)
	if !Verify(p, 42) {
		t.Fatal("Fill/Verify disagree")
	}
	if Verify(p, 43) {
		t.Fatal("Verify passes for wrong seed")
	}
	q := make([]byte, 1000)
	Fill(q, 42)
	if !bytes.Equal(p, q) {
		t.Fatal("Fill not deterministic")
	}
}
