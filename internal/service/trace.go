package service

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/topo"
)

// Traced jobs: a JobSpec submitted with "trace": true runs its first
// traceRepCap replicates with an obs.Recorder attached. The captured
// JSONL traces accumulate in the jobState (in memory only — never
// journaled) and are served by GET /v1/jobs/{id}/trace; replicate 0
// additionally publishes sampled "round" events on the SSE hub, and
// every traced round feeds the pluralityd_round_duration_seconds
// histogram. None of this can perturb the records: observers consume
// zero rng (the internal/obs contract), and the trace bytes ride a side
// channel that never touches the record sink or the journal.

const (
	// traceRepCap bounds the traced replicates per job: the first
	// traceRepCap replicate indexes (a deterministic prefix — which
	// replicates are traced never depends on scheduling).
	traceRepCap = 16
	// traceRingCap bounds the retained rounds per traced replicate;
	// longer runs keep the most recent rounds plus the summary line.
	traceRingCap = 2048
	// traceRoundEventGap is the minimum spacing between SSE "round"
	// events of one job, so a fast run cannot flood the hub.
	traceRoundEventGap = 200 * time.Millisecond
)

// jobTracer owns one traced job's telemetry: it hands observers to the
// traced replicates as they start and folds each finished replicate's
// trace into the job state on the coordinating goroutine.
type jobTracer struct {
	srv *Server
	job *jobState
	// reps maps the traced replicates' private seeds to their indexes.
	// Built once before the job runs and read-only after, so the worker
	// goroutines calling observerFor need no lock for it.
	reps map[uint64]int
	// lastRound is the unix-nano timestamp of the last published SSE
	// round event (throttling state, touched from a worker goroutine).
	lastRound atomic.Int64

	mu   sync.Mutex
	recs map[uint64]*repObserver
}

func newJobTracer(s *Server, j *jobState) *jobTracer {
	cap := traceRepCap
	if cap > j.spec.Replicates {
		cap = j.spec.Replicates
	}
	seeds := mc.RepSeeds(j.spec.Seed, cap) // a prefix of the job's seeds
	reps := make(map[uint64]int, len(seeds))
	for i, seed := range seeds {
		reps[seed] = i
	}
	return &jobTracer{srv: s, job: j, reps: reps, recs: make(map[uint64]*repObserver, len(seeds))}
}

// repObserver instruments one traced replicate: the bounded recorder
// plus a private round-duration histogram (merged into the server
// registry once, when the replicate finishes — the hot path takes no
// locks beyond the recorder's own field writes).
type repObserver struct {
	rep  int
	jt   *jobTracer
	rec  obs.Recorder
	durs *histogram
}

// ObserveRound implements obs.Observer. It runs on the replicate's
// worker goroutine, once per completed engine round.
func (o *repObserver) ObserveRound(round int, n int64, wallNs int64, cfg colorcfg.Config) {
	o.rec.ObserveRound(round, n, wallNs, cfg)
	o.durs.observe(float64(wallNs) / 1e9)
	if o.rep == 0 {
		o.jt.maybePublishRound(o)
	}
}

// observerFor is the MCJobWith observer hook: traced replicates get a fresh
// repObserver, the rest run bare. Called from worker goroutines.
func (jt *jobTracer) observerFor(seed uint64) obs.Observer {
	rep, ok := jt.reps[seed]
	if !ok {
		return nil
	}
	o := &repObserver{rep: rep, jt: jt, durs: newHistogram(roundDurBuckets)}
	o.rec.Cap = traceRingCap
	jt.mu.Lock()
	jt.recs[seed] = o
	jt.mu.Unlock()
	return o
}

// maybePublishRound emits a throttled SSE "round" event for replicate 0:
// the first round always, then at most one per traceRoundEventGap. The
// CAS keeps a racing scrape of the throttle cheap and lock-free; reading
// the recorder here is safe because it is replicate 0's own goroutine.
func (jt *jobTracer) maybePublishRound(o *repObserver) {
	now := time.Now().UnixNano()
	last := jt.lastRound.Load()
	if last != 0 && now-last < int64(traceRoundEventGap) {
		return
	}
	if !jt.lastRound.CompareAndSwap(last, now) {
		return
	}
	st := o.rec.At(o.rec.Len() - 1)
	jt.srv.hub.publish(func() Event {
		return Event{
			Type:    "round",
			ID:      jt.job.id,
			Round:   st.Round,
			Bias:    st.Bias,
			CMax:    st.CMax,
			Engine:  jt.job.engLabel,
			Rule:    jt.job.ruleLabel,
			Backlog: jt.srv.queue.Backlog(),
		}
	})
}

// finishRep folds a finished replicate's telemetry into the job: the
// JSONL trace is appended to the in-memory buffer and the replicate's
// round durations merge into the registry histogram. Runs on the mc
// coordinating goroutine (via OnProgress), which the worker's
// completion handoff already synchronizes with, so the recorder is
// quiescent here. Untraced and resumed replicates are no-ops.
func (jt *jobTracer) finishRep(rec mc.Record) {
	jt.mu.Lock()
	o := jt.recs[rec.Seed]
	delete(jt.recs, rec.Seed)
	jt.mu.Unlock()
	if o == nil {
		return
	}
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = o.rec.WriteTrace(&buf, jt.job.spec.TraceHeader(rec))
	jt.job.appendTrace(buf.Bytes())
	jt.srv.met.mergeRoundDur(o.durs)
}

// buildMCJob compiles a job's spec and progress hook, attaching the
// tracing machinery when the spec asks for it. Both submission paths
// and nothing else go through here, so traced and untraced jobs share
// one wiring point.
func (s *Server) buildMCJob(j *jobState) (mc.Job, func(mc.Record, int, int)) {
	prog := s.jobProgress(j)
	if !j.spec.Trace {
		return j.spec.MCJob(), prog
	}
	jt := newJobTracer(s, j)
	job := j.spec.MCJobWith(jt.observerFor, topo.BuildOpts{})
	return job, func(rec mc.Record, done, total int) {
		jt.finishRep(rec)
		prog(rec, done, total)
	}
}

// handleTrace serves GET /v1/jobs/{id}/trace: the JSONL traces captured
// so far (one run per finished traced replicate, in completion order).
// Jobs not submitted with "trace": true are a 404; a traced job whose
// traces were evicted with its records — or that resumed after a
// restart, since traces are in-memory only — serves whatever it has,
// which may be empty.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if !j.spec.Trace {
		writeError(w, http.StatusNotFound, "job %s was not submitted with \"trace\": true", j.id)
		return
	}
	s.store.touch(j.id)
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(j.traceSnapshot())
}
