// Package service is the HTTP/JSON layer of pluralityd: it accepts
// simulation jobs (JobSpec), executes them on the process-wide mc.Shared
// worker pool, and serves per-replicate results as JSONL.
//
// Two execution paths share one store and one pool:
//
//   - synchronous: small jobs (Cost below Options.SyncCost, or an
//     explicit ?wait=1) run on the request goroutine, bounded by the
//     MaxSync semaphore, and the response carries the terminal JobInfo;
//   - asynchronous: everything else is admitted into an mc.Queue with
//     Options.Executors executors and an Options.Backlog-deep backlog.
//
// Both paths shed load instead of buffering it: a full backlog or a
// saturated sync semaphore is HTTP 429. Job records are a pure function
// of the spec (see JobSpec), so the service is byte-reproducible across
// restarts, worker counts and scheduling.
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/jobs              submit (202 queued, 200 sync-done, 400, 429, 503 draining)
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         poll one job
//	GET    /v1/jobs/{id}/records JSONL records; ?follow=1 streams until terminal
//	GET    /v1/jobs/{id}/trace   JSONL telemetry traces of a job submitted with "trace": true (trace.go)
//	POST   /v1/jobs/{id}/cancel  cancel a queued or running job
//	DELETE /v1/jobs/{id}         delete a terminal job and its records
//	GET    /healthz              liveness + queue depth + draining flag
//	GET    /metrics              Prometheus text exposition (metrics.go)
//	GET    /v1/events            SSE job lifecycle + progress stream (events.go)
//	GET    /                     embedded live dashboard (dashboard.go)
//
// With Options.DataDir set the server is crash-survivable: submissions,
// state transitions and per-replicate records are journaled to disk, a
// restarted server replays the journal and resumes every non-terminal
// job from its completed replicate prefix, and — because records are a
// pure function of the spec — the resumed record stream is
// byte-identical to a crash-free run. See journal.go and DESIGN.md §9.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/mc"
)

// Options tunes a Server. The zero value means "all defaults".
type Options struct {
	// Workers is the parallelism of the shared replicate pool
	// (<= 0: GOMAXPROCS).
	Workers int
	// Executors is the number of async jobs running concurrently
	// (<= 0: 2).
	Executors int
	// Backlog is the number of admitted-but-not-running async jobs
	// (< 0: 0; 0 means the default 16).
	Backlog int
	// MaxSync is the number of synchronous submissions running
	// concurrently (<= 0: 4).
	MaxSync int
	// SyncCost is the JobSpec.Cost threshold at or below which a
	// submission without an explicit ?wait runs synchronously
	// (<= 0: 50_000_000 agent updates).
	SyncCost int64

	// DataDir, when non-empty, makes the server durable: jobs and
	// records are journaled there and replayed on the next start (see
	// journal.go for the layout and the durability contract). Empty
	// keeps the pre-existing in-memory-only behavior.
	DataDir string
	// Retain caps the terminal jobs kept in memory with full records;
	// beyond it the least-recently-touched are evicted to tombstones
	// (records stay servable from the journal). 0 means the default
	// 1024; negative means unlimited.
	Retain int
	// FS overrides the journal's filesystem (fault injection); nil
	// means the real filesystem.
	FS FS
	// SyncEvery is the number of record appends between fsyncs of a
	// job's records file (0: 16; 1 syncs every append). Terminal
	// transitions always sync regardless.
	SyncEvery int
	// JournalRetries is the attempt budget for transient journal write
	// failures before a job latches to failed (0: 3).
	JournalRetries int
	// JournalBackoff is the initial retry backoff, doubled per attempt
	// (0: 2ms).
	JournalBackoff time.Duration

	// EventBuffer is the per-client send buffer of the /v1/events SSE
	// stream, in events; a client that falls this far behind is dropped
	// instead of ever blocking the serving path (0: 64).
	EventBuffer int
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.Executors <= 0 {
		o.Executors = 2
	}
	if o.Backlog == 0 {
		o.Backlog = 16
	} else if o.Backlog < 0 {
		o.Backlog = 0
	}
	if o.MaxSync <= 0 {
		o.MaxSync = 4
	}
	if o.SyncCost <= 0 {
		o.SyncCost = 50_000_000
	}
	if o.Retain == 0 {
		o.Retain = 1024
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.JournalRetries <= 0 {
		o.JournalRetries = 3
	}
	if o.JournalBackoff <= 0 {
		o.JournalBackoff = 2 * time.Millisecond
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 64
	}
	return o
}

// Server is the pluralityd HTTP handler plus the job machinery behind
// it. Create one with New, serve it (it implements http.Handler), and
// Close it after the HTTP server has stopped accepting requests.
type Server struct {
	opts     Options
	pool     *mc.Pool
	queue    *mc.Queue
	store    *store
	met      *serverMetrics
	hub      *hub
	jr       *journal // nil without DataDir
	mux      *http.ServeMux
	baseCtx  context.Context
	stop     context.CancelFunc
	syncSem  chan struct{}
	syncWG   sync.WaitGroup
	draining atomic.Bool
	once     sync.Once
}

// New builds a Server on the process-wide mc.Shared(opts.Workers) pool.
// With opts.DataDir set it replays the journal found there and
// re-enqueues every non-terminal job before returning; the error is
// non-nil only on real I/O failures (corrupt journals are recovered by
// truncation, never fatal).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	pool := mc.Shared(opts.Workers)
	ctx, stop := context.WithCancel(context.Background())
	met := newServerMetrics()
	s := &Server{
		opts:    opts,
		pool:    pool,
		queue:   mc.NewQueue(pool, opts.Executors, opts.Backlog),
		store:   newStore(opts.Retain, met),
		met:     met,
		hub:     newHub(opts.EventBuffer, met),
		baseCtx: ctx,
		stop:    stop,
		syncSem: make(chan struct{}, opts.MaxSync),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/records", s.handleRecords)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	s.mux = mux
	if opts.DataDir != "" {
		jr, rs, err := openJournal(opts.FS, opts.DataDir,
			opts.SyncEvery, retryPolicy{attempts: opts.JournalRetries, backoff: opts.JournalBackoff})
		if err != nil {
			s.queue.Close()
			stop()
			return nil, err
		}
		jr.met = met
		s.jr = jr
		s.restore(rs)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips the server into draining mode: new submissions are
// refused with 503 + Retry-After while the existing endpoints keep
// serving. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain gracefully winds the server down: it stops admitting (503),
// cancels every job so in-flight replicates finish and are journaled,
// waits — bounded by ctx — for the executors and synchronous handlers
// to drain, and then journals the clean-shutdown marker. Cancelled jobs
// are *not* journaled as terminal: a restart replays them from their
// completed replicate prefix. On a ctx deadline the marker is withheld,
// so the next start replays exactly as it would after a crash.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	s.store.cancelAll()
	done := make(chan struct{})
	go func() {
		s.queue.Close()
		s.syncWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// Every in-flight job has finished and published its terminal event;
	// end the SSE streams with the shutdown marker before the journal
	// closes.
	s.hub.shutdown()
	if s.jr != nil {
		s.jr.close(true)
	}
	return nil
}

// Close cancels every job and stops the executors. It must be called
// after the HTTP listener has shut down; the shared worker pool itself
// stays alive for the rest of the process. Without a prior successful
// Drain the journal is closed *without* the clean-shutdown marker, so
// interrupted jobs replay on the next start.
func (s *Server) Close() {
	s.once.Do(func() {
		s.draining.Store(true)
		s.hub.shutdown()
		s.stop()
		s.store.cancelAll()
		s.queue.Close()
		if s.jr != nil {
			s.jr.close(false)
		}
	})
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the {"error": ...} body every failure path shares.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit decodes, validates and routes one submission.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.rejectedJob("draining")
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after the restart")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	sync := spec.Cost() <= s.opts.SyncCost
	if v := r.URL.Query().Get("wait"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait=%q (want a boolean)", v)
			return
		}
		sync = b
	}
	if sync {
		s.submitSync(w, r, spec)
	} else {
		s.submitAsync(w, spec)
	}
}

// submitSync runs the job on the request goroutine under the MaxSync
// semaphore and returns its terminal snapshot.
func (s *Server) submitSync(w http.ResponseWriter, r *http.Request, spec JobSpec) {
	select {
	case s.syncSem <- struct{}{}:
		defer func() { <-s.syncSem }()
	default:
		s.met.rejectedJob("sync_slots_busy")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all %d synchronous slots are busy; retry or submit with wait=0", s.opts.MaxSync)
		return
	}
	s.syncWG.Add(1)
	defer s.syncWG.Done()
	// Re-check draining after the Add: a submission that passed the
	// handleSubmit check just before StartDrain could otherwise Add after
	// Drain's syncWG.Wait returned and run against a closed journal. If
	// the flag is clear here, the Add is ordered before Drain's Wait and
	// the drain covers this job.
	if s.draining.Load() {
		s.met.rejectedJob("draining")
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after the restart")
		return
	}
	// The job dies with the client connection or with server shutdown,
	// whichever comes first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopWatch := context.AfterFunc(s.baseCtx, cancel)
	defer stopWatch()

	j := s.store.create(spec, cancel)
	j.syncPath = true
	if err := s.journalSubmit(j); err != nil {
		s.store.remove(j.id)
		writeError(w, http.StatusInternalServerError, "could not journal the submission: %v", err)
		return
	}
	s.met.submittedJob("sync")
	s.publishJob(j)
	j.setRunning()
	s.journalRunning(j)
	s.publishJob(j)
	job, onProgress := s.buildMCJob(j)
	_, err := s.pool.Run(ctx, job, mc.RunOpts{Sink: s.jobSink(j), OnProgress: onProgress})
	s.finishJob(j, err)
	info := j.info()
	status := http.StatusOK
	if info.State == StateFailed {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, info)
}

// submitAsync admits the job into the queue, rolling the registration
// back with a 429 when the backlog is full. The submission is journaled
// before admission, so an acknowledged job can never be forgotten; a
// rejected one is journaled as deleted.
func (s *Server) submitAsync(w http.ResponseWriter, spec JobSpec) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := s.store.create(spec, cancel)
	if err := s.journalSubmit(j); err != nil {
		cancel()
		s.store.remove(j.id)
		writeError(w, http.StatusInternalServerError, "could not journal the submission: %v", err)
		return
	}
	if !s.enqueue(ctx, j, nil) {
		cancel()
		s.store.remove(j.id)
		s.journalDelete(j.id)
		s.met.rejectedJob("backlog_full")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job backlog is full (%d executors, %d queued); retry later", s.opts.Executors, s.opts.Backlog)
		return
	}
	s.met.submittedJob("async")
	s.publishJob(j)
	writeJSON(w, http.StatusAccepted, j.info())
}

// handleList serves all jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.list()})
}

// jobOr404 resolves the {id} path segment.
func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*jobState, bool) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return j, ok
}

// handleGet serves one job snapshot.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	s.store.touch(j.id)
	writeJSON(w, http.StatusOK, j.info())
}

// handleRecords streams the job's JSONL records. Evicted jobs are
// served straight from the journal; without one the records are gone
// for good (410).
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	s.store.touch(j.id)
	follow := false
	if v := r.URL.Query().Get("follow"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad follow=%q (want a boolean)", v)
			return
		}
		follow = b
	}
	if j.isEvicted() {
		if s.jr == nil {
			writeError(w, http.StatusGone, "records of %s were evicted from memory; run with -data-dir to keep them durable", j.id)
			return
		}
		raw, err := s.jr.readRecords(j.id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "reading journaled records of %s: %v", j.id, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		_, _ = w.Write(raw)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	var flush func()
	if f, ok := w.(http.Flusher); ok && follow {
		flush = f.Flush
	}
	_ = j.streamRecords(r.Context(), w, follow, flush)
}

// handleCancel requests cancellation. Cancelling a terminal job is a
// no-op; the response is always the current snapshot.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if j.requestCancel(true) {
		// A still-queued job turned terminal right here; running jobs
		// journal their terminal state from the executor's finish path.
		s.journalTerminal(j, StateCancelled, context.Canceled.Error())
		s.store.noteTerminal(j.id)
		s.publishJob(j)
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleDelete removes a terminal job and its journaled records.
// Non-terminal jobs are a 409: cancel first, then delete.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, deleted := s.store.deleteTerminal(id)
	if !found {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !deleted {
		writeError(w, http.StatusConflict, "job %s is not terminal; cancel it before deleting", id)
		return
	}
	s.journalDelete(id)
	s.met.jobDeleted()
	s.hub.publish(func() Event { return Event{Type: "deleted", ID: id, Backlog: s.queue.Backlog()} })
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz reports liveness, queue depth and drain status.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"workers":  s.pool.Workers(),
		"backlog":  s.queue.Backlog(),
		"draining": s.draining.Load(),
	})
}
