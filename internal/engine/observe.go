package engine

import "plurality/internal/obs"

// Observer support. Every concrete engine in this package carries an
// optional obs.Observer in its shared core (counts) and reports each
// completed Step to it from the core's begin/end bracket: round number,
// agent count, wall-clock nanoseconds, and the post-round count
// configuration. The zero-cost-when-off contract (DESIGN.md §13):
//
//   - Detached (the default), the entire cost is a nil check at each end
//     of Step. No clock read, no allocation. TestStepZeroAllocs and the
//     sparse ns/agent budget run in this state.
//   - Attached, the engine reads the clock twice per round and makes one
//     interface call — all outside the per-agent loops, so worker
//     dispatch and the inner sampling plans are untouched.
//   - The observer is never handed the rng, so a seeded run's byte
//     stream is identical with and without one (certified against every
//     committed golden by internal/validate.TraceBytesObserved).
//
// The Engine interface itself is unchanged — observation is attached via
// the Observable side-interface so wrappers and test fakes that don't
// care keep compiling.

// Observable is implemented by engines that accept a round observer.
type Observable interface {
	// SetObserver attaches o (nil detaches). Must be called between
	// rounds, from the stepping goroutine.
	SetObserver(o obs.Observer)
}

// Observe attaches o to e if the engine supports observation, reporting
// whether it did. Attaching to a non-Observable engine is a no-op, not
// an error — telemetry is best-effort by design.
func Observe(e Engine, o obs.Observer) bool {
	oe, ok := e.(Observable)
	if ok {
		oe.SetObserver(o)
	}
	return ok
}
