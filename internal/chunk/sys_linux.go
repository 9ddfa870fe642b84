package chunk

import (
	"errors"
	"os"
	"syscall"
)

// punchHole deallocates [off, off+n) of f without changing its size; the
// range reads back as zeros. On a file system that cannot punch holes the
// blocks stay allocated until the pack is removed.
func punchHole(f *os.File, off, n int64) error {
	const punchHole, keepSize = 0x02, 0x01 // FALLOC_FL_PUNCH_HOLE, FALLOC_FL_KEEP_SIZE
	err := syscall.Fallocate(int(f.Fd()), punchHole|keepSize, off, n)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return nil
	}
	return err
}

// datasync flushes f's data, and the metadata needed to read it back, to
// stable storage.
func datasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
