//go:build unix

package cache

import (
	"os"
	"syscall"
)

// lockFile takes a non-blocking flock on f — exclusive for a segment's
// writer and for compaction, shared for a reader's is-it-sealed probe —
// and reports whether it got it.
func lockFile(f *os.File, exclusive bool) bool {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	return syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB) == nil
}

func unlockFile(f *os.File) { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
