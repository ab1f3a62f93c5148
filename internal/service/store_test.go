package service

import (
	"slices"
	"testing"
)

// terminalJob registers a job in s and moves it to done, as finishJob
// does, then hands it to the retention LRU.
func terminalJob(s *store) *jobState {
	j := s.create(smallSpec(), func() {})
	j.finish(nil)
	s.noteTerminal(j.id)
	return j
}

// TestStoreLRUOrder pins the retention LRU across touches and evictions:
// a touch moves a job to the most-recent end, an unknown id changes
// nothing, and each job past retain evicts the least recently touched.
func TestStoreLRUOrder(t *testing.T) {
	s := newStore(3, newServerMetrics())
	jobs := map[string]*jobState{}
	step := func(what string, do func(), lru ...string) {
		t.Helper()
		do()
		if !slices.Equal(s.lru, lru) {
			t.Fatalf("after %s: lru %v, want %v", what, s.lru, lru)
		}
		for id, j := range jobs {
			if want := !slices.Contains(lru, id); j.isEvicted() != want {
				t.Fatalf("after %s: %s evicted = %v, want %v", what, id, j.isEvicted(), want)
			}
		}
	}
	add := func() {
		j := terminalJob(s)
		jobs[j.id] = j
	}
	step("three jobs", func() { add(); add(); add() }, "j1", "j2", "j3")
	step("touch j1", func() { s.touch("j1") }, "j2", "j3", "j1")
	step("touch j3", func() { s.touch("j3") }, "j2", "j1", "j3")
	step("touch the newest", func() { s.touch("j3") }, "j2", "j1", "j3")
	step("touch an unknown id", func() { s.touch("j9") }, "j2", "j1", "j3")
	step("a fourth job", add, "j1", "j3", "j4")
	step("touch j1 again", func() { s.touch("j1") }, "j3", "j4", "j1")
	step("a fifth job", add, "j4", "j1", "j5")
}

// TestStoreTouchAllocs: refreshing a job in a full LRU, which every GET
// of a job, its records or its trace does, allocates nothing.
func TestStoreTouchAllocs(t *testing.T) {
	const retain = 1024
	s := newStore(retain, nil)
	ids := make([]string, retain)
	for i := range ids {
		ids[i] = terminalJob(s).id
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() { s.touch(ids[i%retain]); i += 7 }); n != 0 {
		t.Errorf("touch allocates %v times per call, want 0", n)
	}
	if len(s.lru) != retain || s.lru[retain-1] != ids[(i-7)%retain] {
		t.Errorf("after the touches: %d ids, last %s", len(s.lru), s.lru[retain-1])
	}
	got, want := slices.Sorted(slices.Values(s.lru)), slices.Sorted(slices.Values(ids))
	if !slices.Equal(got, want) {
		t.Error("touch lost or duplicated an id")
	}
}
