//go:build !linux

package chunk

import "os"

// punchHole is a no-op where hole punching is not wired up: a deleted
// record's space is freed only with its pack.
func punchHole(*os.File, int64, int64) error { return nil }

// datasync flushes f to stable storage.
func datasync(f *os.File) error { return f.Sync() }
