// Package obs is the run-level telemetry layer and the only per-round
// hook of a run: per-round wall-clock timing, convergence statistics,
// sampled memory readings and the paper's phase segmentation for any
// engine, captured behind a strict zero-cost-when-off contract.
//
// The contract has three clauses, all load-bearing:
//
//  1. Detached is free. An engine with no observer pays exactly one
//     nil-check branch per Step — no time.Now, no allocation, no
//     indirect call. The engine hot-path budget (TestStepZeroAllocs,
//     the <50 ns/agent sparse target) is written against this state.
//  2. The observer sits outside the per-agent loop. ObserveRound fires
//     once per completed Step with the post-round configuration; it
//     never sees (and can never perturb) the inner sampling loops.
//  3. The observer consumes zero rng. Nothing it is handed can reach
//     the run's generator, so every golden trace stays byte-identical
//     with an observer attached — certified by
//     internal/validate.TraceBytesObserved against all committed
//     goldens.
//
// Every per-round consumer is an Observer: ObserverFunc adapts a func
// literal, and core.Options.Observer attaches one to a run. Because the
// engine reports at the end of its Step, an observer of a run with an
// adversary sees each round before that round's corruption.
//
// Recorder is the standard implementation: a bounded ring of per-round
// statistics (c_max, c_second, bias, minority_mass, support, plurality,
// plus wall_ns, ns/agent and sampled runtime.ReadMemStats readings)
// that serializes to a JSONL trace (jsonl.go) consumed by
// cmd/tracereport and served by pluralityd's GET /v1/jobs/{id}/trace.
// Segments and PhaseSummary (phase.go) split retained rounds into the
// growth, decay and extinction phases of the paper's Theorem 1 proof.
// Recorder.ObserveRound performs zero steady-state allocations, so it is
// safe to attach even to the n=10⁷ sparse benchmark (the CI overhead
// budget pins it within 2% of the detached run).
package obs

import (
	"runtime"
	"time"

	"plurality/internal/colorcfg"
)

// Observer receives one callback per completed engine round.
//
// Implementations must not retain cfg (it is the engine's live count
// array), must not consume any rng, and should return quickly — the
// callback runs on the engine's stepping goroutine, inside the round's
// measured wall time as seen by the caller above.
type Observer interface {
	// ObserveRound reports one completed round: the number of completed
	// rounds, the total agent count, the wall-clock nanoseconds the Step
	// took, and a read-only view of the post-round configuration.
	ObserveRound(round int, n int64, wallNs int64, cfg colorcfg.Config)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(round int, n int64, wallNs int64, cfg colorcfg.Config)

// ObserveRound implements Observer by calling f.
func (f ObserverFunc) ObserveRound(round int, n int64, wallNs int64, cfg colorcfg.Config) {
	f(round, n, wallNs, cfg)
}

// RoundStats is one observed round: the convergence fields (the
// columns the phase segmentation reads; n is CMax + MinorityMass) and
// the timing and memory telemetry of the round.
type RoundStats struct {
	Round        int     `json:"round"`
	WallNs       int64   `json:"wall_ns"`
	NsPerAgent   float64 `json:"ns_per_agent"`
	CMax         int64   `json:"c_max"`
	CSecond      int64   `json:"c_second"`
	Bias         int64   `json:"bias"`
	MinorityMass int64   `json:"minority_mass"`
	Support      int     `json:"support"`
	Plurality    int     `json:"plurality"`
	// HeapAlloc/NumGC are non-zero only on rounds where the recorder
	// sampled runtime.ReadMemStats (every MemEvery-th round).
	HeapAlloc uint64 `json:"heap_alloc,omitempty"`
	NumGC     uint32 `json:"num_gc,omitempty"`
}

// Default recorder bounds.
const (
	// DefaultCap is the ring size: the most recent DefaultCap rounds are
	// retained; earlier ones are summarized (total count, cumulative wall
	// time, memory high-water) but dropped from the ring.
	DefaultCap = 4096
	// DefaultMemEvery is the runtime.ReadMemStats sampling stride.
	// ReadMemStats briefly stops the world, so it is amortized across
	// rounds instead of paid per round.
	DefaultMemEvery = 64
)

// Recorder is an Observer that captures RoundStats into a bounded ring
// buffer. The zero value is ready to use with the default bounds; set
// Cap / MemEvery before the first ObserveRound to change them. Not safe
// for concurrent use — one Recorder per engine.
type Recorder struct {
	// Cap bounds the retained rounds (0: DefaultCap). The ring is
	// allocated once, on the first ObserveRound; after that the recorder
	// performs zero allocations per round.
	Cap int
	// MemEvery is the ReadMemStats sampling stride (0: DefaultMemEvery;
	// negative: never sample).
	MemEvery int

	ring    []RoundStats
	total   int   // rounds observed, including dropped ones
	n       int64 // agent count of the observed engine (from the last round)
	wallNs  int64 // cumulative wall time across all observed rounds
	heapMax uint64
	mem     runtime.MemStats
}

// ObserveRound implements Observer.
func (r *Recorder) ObserveRound(round int, n int64, wallNs int64, cfg colorcfg.Config) {
	if r.ring == nil {
		cap := r.Cap
		if cap <= 0 {
			cap = DefaultCap
		}
		r.ring = make([]RoundStats, cap)
	}
	var first, second int64
	var plur, support int
	for j, cj := range cfg {
		if cj > 0 {
			support++
		}
		if cj > first {
			second, first, plur = first, cj, j
		} else if cj > second {
			second = cj
		}
	}
	st := RoundStats{
		Round:        round,
		WallNs:       wallNs,
		NsPerAgent:   float64(wallNs) / float64(n),
		CMax:         first,
		CSecond:      second,
		Bias:         first - second,
		MinorityMass: n - first,
		Support:      support,
		Plurality:    plur,
	}
	if stride := r.memStride(); stride > 0 && r.total%stride == 0 {
		runtime.ReadMemStats(&r.mem)
		st.HeapAlloc = r.mem.HeapAlloc
		st.NumGC = r.mem.NumGC
		if r.mem.HeapAlloc > r.heapMax {
			r.heapMax = r.mem.HeapAlloc
		}
	}
	r.ring[r.total%len(r.ring)] = st
	r.total++
	r.n = n
	r.wallNs += wallNs
}

func (r *Recorder) memStride() int {
	if r.MemEvery < 0 {
		return 0
	}
	if r.MemEvery == 0 {
		return DefaultMemEvery
	}
	return r.MemEvery
}

// Len is the number of rounds retained in the ring.
func (r *Recorder) Len() int {
	if r.total < len(r.ring) {
		return r.total
	}
	return len(r.ring)
}

// Dropped is the number of early rounds the ring has overwritten.
func (r *Recorder) Dropped() int { return r.total - r.Len() }

// At returns the i-th retained round, oldest first (i in [0, Len())).
func (r *Recorder) At(i int) RoundStats {
	return r.ring[(r.Dropped()+i)%len(r.ring)]
}

// Rounds appends the retained rounds, oldest first, to dst and returns
// the extended slice.
func (r *Recorder) Rounds(dst []RoundStats) []RoundStats {
	for i, n := 0, r.Len(); i < n; i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}

// Began returns the current wall clock when an observer is attached and
// the zero time otherwise — the begin-timestamp helper engines call at
// the top of Step so a detached engine never reads the clock.
func Began(o Observer) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}
