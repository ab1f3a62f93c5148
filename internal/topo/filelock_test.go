package topo

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"plurality/internal/rng"
)

// TestBuildSourceMmapSingleBuild pins the cache-stampede fix: many
// concurrent BuildSource calls on the same cold cache path perform exactly
// one CSR build between them — the rest block on the per-path lock and
// then mmap the winner's file. Every caller still gets the identical
// graph.
func TestBuildSourceMmapSingleBuild(t *testing.T) {
	const spec, n = "regular:6", 3000
	path := filepath.Join(t.TempDir(), CacheFileName(spec, n, 42))
	before := mmapCacheBuilds.Load()

	const callers = 8
	srcs := make([]NeighborSource, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srcs[i], errs[i] = BuildSource(spec, n, rng.New(42), BuildOpts{Path: path})
		}(i)
	}
	wg.Wait()

	if got := mmapCacheBuilds.Load() - before; got != 1 {
		t.Errorf("%d concurrent callers performed %d builds, want 1", callers, got)
	}
	ref := srcs[0]
	for i, src := range srcs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		defer src.(io.Closer).Close()
		if src.Name() != ref.Name() || src.N() != n {
			t.Errorf("caller %d got %q n=%d, want %q n=%d", i, src.Name(), src.N(), ref.Name(), int64(n))
		}
		for _, v := range []int64{0, 1, n / 2, n - 1} {
			if src.Degree(v) != ref.Degree(v) || src.Neighbor(v, 0) != ref.Neighbor(v, 0) {
				t.Errorf("caller %d disagrees with caller 0 at vertex %d", i, v)
			}
		}
	}

	// The lock file stays behind by design (unlinking it would reopen the
	// cross-process race); a warm-cache call must not build again.
	if _, err := os.Stat(path + ".lock"); err != nil {
		t.Errorf("lock file missing after build: %v", err)
	}
	warm, err := BuildSource(spec, n, rng.New(42), BuildOpts{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	warm.(io.Closer).Close()
	if got := mmapCacheBuilds.Load() - before; got != 1 {
		t.Errorf("warm-cache call rebuilt the graph (%d builds total)", got)
	}
}

// TestBuildSourceMmapLockedRebuildMatches proves the serialized build
// yields the same bytes as an unserialized one: the cache file written
// under the lock equals a direct in-RAM build of the same (spec, n, seed).
func TestBuildSourceMmapLockedRebuildMatches(t *testing.T) {
	const spec, n = "regular:6", 1200
	path := filepath.Join(t.TempDir(), CacheFileName(spec, n, 7))
	src, err := BuildSource(spec, n, rng.New(7), BuildOpts{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer src.(io.Closer).Close()
	direct, err := BuildSource(spec, n, rng.New(7), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	csr := direct.(*CSR)
	for v := int64(0); v < n; v++ {
		if src.Degree(v) != csr.Degree(v) {
			t.Fatalf("vertex %d: degree %d vs direct %d", v, src.Degree(v), csr.Degree(v))
		}
		row := make([]int32, 0, csr.Degree(v))
		for i := int64(0); i < csr.Degree(v); i++ {
			row = append(row, int32(src.Neighbor(v, i)))
		}
		if !slices.Equal(row, csr.Neighbors[csr.Offsets[v]:csr.Offsets[v+1]]) {
			t.Fatalf("vertex %d: rows differ", v)
		}
	}
}

// TestLockBuildErrorPath covers the flock acquisition failure branch: a
// lock path inside a nonexistent directory surfaces the error instead of
// silently skipping coordination.
func TestLockBuildErrorPath(t *testing.T) {
	_, err := lockBuild(filepath.Join(t.TempDir(), "no-such-dir", "x.csr"))
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lockBuild under a missing directory = %v, want ErrNotExist", err)
	}
}
