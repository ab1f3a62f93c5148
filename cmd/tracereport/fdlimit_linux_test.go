package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestReportManyFilesUnderFDLimit reports on more trace files than the
// process may hold open at once, as `tracereport traces/*.jsonl` does for
// a large sweep: run must close each input before it opens the next.
func TestReportManyFilesUnderFDLimit(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("t%d.jsonl", i))
		writeTrace(t, paths[i], 1, 5)
	}
	open, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("cannot count open descriptors:", err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skip("getrlimit:", err)
	}
	lim := old
	lim.Cur = uint64(len(open) + 16)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skip("setrlimit:", err)
	}
	t.Cleanup(func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
			t.Error("restoring RLIMIT_NOFILE:", err)
		}
	})
	if err := run(io.Discard, paths, 0); err != nil {
		t.Fatal(err)
	}
}
