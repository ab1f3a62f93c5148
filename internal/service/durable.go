package service

import (
	"context"
	"fmt"

	"plurality/internal/mc"
)

// This file is the glue between the job lifecycle (store.go, server.go)
// and the durable journal (journal.go). Every method degrades to a
// no-op when the server runs without a DataDir, so the in-memory-only
// configuration pays nothing.

// journalSubmit journals a job submission. The fsynced entry is the
// admission barrier: the caller only acknowledges the job (202/200)
// after it returns nil, so an acknowledged job can never be forgotten
// by a crash.
func (s *Server) journalSubmit(j *jobState) error {
	if s.jr == nil {
		return nil
	}
	return s.jr.submit(j.id, j.spec)
}

// journalRunning journals the queued→running transition. Best-effort:
// losing it replays the job as queued, which re-runs it identically.
func (s *Server) journalRunning(j *jobState) {
	if s.jr == nil {
		return
	}
	_ = s.jr.state(j.id, StateRunning, "")
}

// journalTerminal journals a terminal transition, syncing the job's
// records file first (see journal.jobTerminal). Best-effort: a lost
// terminal entry replays the job, which recomputes the identical
// records and lands on the same terminal state.
func (s *Server) journalTerminal(j *jobState, st State, errmsg string) {
	if s.jr == nil {
		return
	}
	_ = s.jr.jobTerminal(j.id, st, errmsg)
}

// journalDelete journals a job deletion and removes its records file.
// Best-effort: a lost delete resurrects a terminal job on restart,
// which the client can simply delete again.
func (s *Server) journalDelete(id string) {
	if s.jr == nil {
		return
	}
	_ = s.jr.deleteJob(id)
}

// jobSink builds the mc record sink for one job: journal first, memory
// second, so a record visible to any API client is already on its way
// to stable storage. A journal append error (transient failures were
// already retried inside appendRecord) aborts the run and latches the
// job to failed.
func (s *Server) jobSink(j *jobState) func(mc.Record) error {
	return func(rec mc.Record) error {
		if s.jr != nil {
			if err := s.jr.appendRecord(j.id, rec); err != nil {
				return err
			}
		}
		return j.appendRecord(rec)
	}
}

// finishJob settles a job's terminal state from its run outcome and
// registers it with the retention LRU. Exactly one caller wins the
// transition; the rest are no-ops. Drain/shutdown cancellations of
// async jobs are NOT journaled as terminal — they stay non-terminal in
// the journal so a restart resumes them from their completed replicate
// prefix. API cancels and sync-path jobs (whose lifetime is the
// request's) are journaled terminal like any other outcome.
func (s *Server) finishJob(j *jobState, err error) {
	st, ok := j.finish(err)
	if !ok {
		return
	}
	resumable := st == StateCancelled && !j.userCancelled() && !j.syncPath
	if !resumable {
		s.journalTerminal(j, st, j.info().Error)
	}
	s.store.noteTerminal(j.id)
	s.publishJob(j)
}

// restore re-registers every replayed job before the server accepts its
// first request. Terminal jobs come back with their records and final
// state; non-terminal jobs are re-enqueued with their completed
// replicate prefix as RunOpts.Done, so only the lost suffix is
// re-executed and the record stream stays byte-identical to a
// crash-free run. A job the queue cannot re-admit latches to failed
// with an explicit error instead of vanishing.
func (s *Server) restore(rs *replayState) {
	// Seed the ID counter from the highest ID the journal has ever seen,
	// not just the replayed (non-deleted) jobs: reusing a deleted job's
	// ID would put its submit entry after the old delete entry, and the
	// next replay would silently drop the acknowledged job.
	s.store.setNext(rs.next)
	for _, rj := range rs.jobs {
		if rj.state.Terminal() {
			j := s.store.restore(rj.id, rj.spec, func() {})
			j.adopt(rj.records, rj.state, rj.errmsg)
			s.store.noteTerminal(j.id)
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := s.store.restore(rj.id, rj.spec, cancel)
		j.adopt(rj.records, "", "")
		if !s.enqueue(ctx, j, rj.records) {
			s.finishJob(j, fmt.Errorf("service: could not re-admit replayed job %s: backlog full (%d executors, %d queued); restart with a larger -backlog", rj.id, s.opts.Executors, s.opts.Backlog))
			cancel()
		}
	}
}

// enqueue offers a job to the queue, with its replicate prefix done (nil
// for a new job) adopted rather than re-executed, and reports whether
// the queue admitted it. The job journals and publishes its start,
// streams its records through jobSink, and settles through finishJob.
// buildMCJob attaches tracing for traced jobs; a resumed job's adopted
// prefix keeps no traces (they are in-memory only), but its re-executed
// suffix is traced like any fresh run.
func (s *Server) enqueue(ctx context.Context, j *jobState, done []mc.Record) bool {
	job, onProgress := s.buildMCJob(j)
	return s.queue.TryEnqueue(ctx, job, mc.RunOpts{
		Done:       done,
		Sink:       s.jobSink(j),
		OnStart:    func() { j.setRunning(); s.journalRunning(j); s.publishJob(j) },
		OnProgress: onProgress,
	}, func(_ []mc.Record, err error) {
		s.finishJob(j, err)
		// Release the context registration on baseCtx; without this every
		// finished job would stay reachable until server shutdown.
		j.cancel()
	})
}
