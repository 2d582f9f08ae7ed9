//go:build !unix

package cache

import "os"

// Without flock every segment looks sealed: readers index it once and
// Compact may absorb a segment whose writer is still appending — those
// later entries are then lost to the cache (recomputed), never served
// wrong.
func lockFile(*os.File, bool) bool { return true }

func unlockFile(*os.File) {}
