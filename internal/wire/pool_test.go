package wire

import "testing"

func TestBufPoolClasses(t *testing.T) {
	const slack = frameSlack
	for _, tc := range []struct{ n, cap int }{
		{0, 0}, {1, 1}, {4<<10 - 1, 4<<10 - 1},
		{4 << 10, 4<<10 + slack}, {4<<10 + slack, 4<<10 + slack}, {4<<10 + slack + 1, 8<<10 + slack},
		{64 << 10, 64<<10 + slack}, {64<<10 + 24, 64<<10 + slack}, // a 64 KiB chunk reply frame
		{1 << 20, 1<<20 + slack}, {1<<20 + slack, 1<<20 + slack}, {1<<20 + slack + 1, 1<<20 + slack + 1},
	} {
		b := GetBuf(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("GetBuf(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
		PutBuf(b)
	}
	PutBuf(nil)
	PutBuf(make([]byte, 5000)) // not a class size: dropped
	if b := GetBuf(5000); cap(b) != 8<<10+slack {
		t.Errorf("GetBuf(5000) after PutBuf of a 5000-byte slice: cap %d, want %d", cap(b), 8<<10+slack)
	}
}
