package topo

import (
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Concurrent sweep cells and pluralityd jobs that share a CacheFileName
// used to race on the same mmap cache miss: each caller rebuilt the
// multi-gigabyte CSR and the atomic renames last-writer-won. The result
// was correct (the files are pure functions of their inputs) but the work
// was multiplied by the caller count. BuildSource's file-backed branch
// now serializes open-or-build per cache path: an in-process mutex covers
// goroutines sharing this process, and an advisory flock on <path>.lock
// covers separate processes pointed at the same cache directory. Losers
// of the race wake up, re-try OpenCSR, and reuse the winner's file.
//
// The .lock file is left in place after the build — unlinking it would
// reopen the race (a process holding the lock on an unlinked inode no
// longer excludes a process locking a fresh file at the same path).

// buildLocks maps absolute cache paths to their in-process mutexes.
var buildLocks sync.Map

// mmapCacheBuilds counts actual CSR builds taken on the mmap cache-miss
// path; tests use it to prove that concurrent callers build once.
var mmapCacheBuilds atomic.Int64

// lockBuild acquires the single-build lock for a cache path and returns
// the release function.
func lockBuild(path string) (func(), error) {
	key, err := filepath.Abs(path)
	if err != nil {
		key = path
	}
	muAny, _ := buildLocks.LoadOrStore(key, &sync.Mutex{})
	mu := muAny.(*sync.Mutex)
	mu.Lock()
	release, err := flockPath(path + ".lock")
	if err != nil {
		mu.Unlock()
		return nil, err
	}
	return func() {
		release()
		mu.Unlock()
	}, nil
}
