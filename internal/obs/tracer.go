package obs

import "sync"

// Tracer hands out per-replicate Recorders to the concurrently
// executing replicates of an mc job, keyed by the replicate's private
// rng seed (the one value both the job closure and the serialized
// result path can see — mc.Record carries it back as rec.Seed).
//
// Usage: the job's New closure calls Recorder(seed) and attaches the
// result as the run's observer; the coordinator's serialized
// Sink/OnProgress hook calls Take(rec.Seed) to claim the finished
// recorder and flush it. Recorder/Take are safe for concurrent use;
// each individual Recorder is still owned by exactly one goroutine at
// a time (the replicate until it finishes, then the coordinator).
type Tracer struct {
	mu sync.Mutex
	m  map[uint64]*Recorder
}

// Recorder returns the recorder for the replicate seeded with seed,
// creating it, with the default bounds, on first use.
func (t *Tracer) Recorder(seed uint64) *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[uint64]*Recorder)
	}
	r := t.m[seed]
	if r == nil {
		r = &Recorder{}
		t.m[seed] = r
	}
	return r
}

// Take removes and returns the recorder for seed, or nil if none was
// ever created (e.g. a resumed replicate that never ran this process).
func (t *Tracer) Take(seed uint64) *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.m[seed]
	delete(t.m, seed)
	return r
}
