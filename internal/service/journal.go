package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/mc"
)

// The durable job journal. Everything the daemon must not forget lives
// in two kinds of append-only JSONL files under the data directory:
//
//	<data-dir>/journal.jsonl      the meta journal: one entry per job
//	                              submission, state transition, delete,
//	                              and clean-shutdown marker
//	<data-dir>/records/<id>.jsonl the job's per-replicate records, in
//	                              the exact mc JSONL format — so replay
//	                              proves them with mc.Prefix, the check
//	                              sweep -resume runs
//
// Durability contract (see DESIGN.md §9):
//
//   - Submissions and terminal transitions are fsynced immediately; the
//     "running" transition is appended without an fsync (losing it only
//     replays the job as queued, which is harmless).
//   - Record appends are fsynced every syncEvery records, and always
//     before the job's terminal meta entry — a journaled "done" implies
//     every record is on stable storage.
//   - A torn trailing write in any file (crash mid-append, OS crash
//     losing an unsynced tail) is recovered by truncating to the last
//     valid line on replay; the lost suffix is re-executed
//     deterministically, so the final record stream is byte-identical
//     to a crash-free run.
//   - Transient write and fsync failures are retried with exponential
//     backoff, the write and its fsync as one unit; each retry first
//     repairs the file (truncate to the last known good offset, reopen)
//     so a partial write never leaves interior garbage. Only after the
//     whole retry budget is spent does the error surface — latching the
//     job to failed.

// File is one append-only journal file: the write/sync/close surface a
// fault-injection layer (internal/service/faultfs) can interpose on.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the journal's filesystem seam. The default implementation is
// the real filesystem (OSFS); tests swap in faulty ones.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens path for appending, creating it if missing.
	OpenAppend(path string) (File, error)
	// ReadFile reads the whole file; a missing file returns an error
	// satisfying os.IsNotExist.
	ReadFile(path string) ([]byte, error)
	Truncate(path string, size int64) error
	Remove(path string) error
}

// OSFS returns the real-filesystem FS.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Remove(path string) error               { return os.Remove(path) }

// journalEntry is one meta-journal line.
type journalEntry struct {
	// Type is "submit", "state", "delete" or "shutdown".
	Type string `json:"type"`
	// ID is the job the entry is about (absent on shutdown markers).
	ID string `json:"id,omitempty"`
	// Spec rides on submit entries: the canonical, normalized job spec.
	Spec *JobSpec `json:"spec,omitempty"`
	// State rides on state entries.
	State State `json:"state,omitempty"`
	// Error carries the failure/cancellation detail on terminal states.
	Error string `json:"error,omitempty"`
}

// DecodeLine is journalEntry's mc.LineDecoder: replay's fast path for
// the state, delete and shutdown lines json.Marshal writes,
//
//	{"type":"T"[,"id":"I"][,"state":"S"][,"error":"E"]}
//
// with the optional members in that order and every string plain
// (mc.CutString). Submit lines, whose spec is a nested object, and every
// other line return false and go to json.Unmarshal.
func (e *journalEntry) DecodeLine(line []byte) bool {
	var d journalEntry
	rest, ok := bytes.CutPrefix(line, []byte(`{"type":`))
	if !ok {
		return false
	}
	if d.Type, rest, ok = mc.CutString(rest); !ok {
		return false
	}
	for _, f := range [...]struct {
		key string
		dst *string
	}{{`,"id":`, &d.ID}, {`,"state":`, (*string)(&d.State)}, {`,"error":`, &d.Error}} {
		if r, found := bytes.CutPrefix(rest, []byte(f.key)); found {
			if *f.dst, rest, ok = mc.CutString(r); !ok {
				return false
			}
		}
	}
	if string(rest) != "}" {
		return false
	}
	*e = d
	return true
}

// jobID pins the set of ids the journal will touch the filesystem for:
// ids are server-generated ("j1", "j2", …), and replay refuses anything
// else so a tampered journal can never name a path outside records/.
var jobID = regexp.MustCompile(`^j[1-9][0-9]*$`)

// errJournalClosed latches appends attempted after shutdown.
var errJournalClosed = errors.New("service: journal is closed")

// retryPolicy bounds the transient-failure retries of journal writes.
type retryPolicy struct {
	attempts int
	backoff  time.Duration
}

// do runs op up to attempts times; after each failure it calls repair
// (fix the file so the retry starts from a clean state) and sleeps an
// exponentially growing backoff. The last error is returned once the
// budget is spent.
func (p retryPolicy) do(op func() error, repair func()) error {
	var err error
	backoff := p.backoff
	for a := 0; a < p.attempts; a++ {
		if a > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = op(); err == nil {
			return nil
		}
		if repair != nil {
			repair()
		}
	}
	return err
}

// appendFile is one append-only journal file: the meta journal or one
// job's records file. Its lock serializes the file's appends.
type appendFile struct {
	mu      sync.Mutex
	path    string
	f       File  // nil until the first append, after close and while broken
	valid   int64 // bytes of complete lines known to be in the file
	pending int   // appends since the last fsync
	// broken marks a failed attempt: f is closed and the file may hold a
	// partial line past valid, which the next open cuts first.
	broken bool
	line   []byte // appendRecord's encoding buffer, reused under mu
}

// open opens the file for appending, first cutting a broken file back to
// its valid offset.
func (af *appendFile) open(fs FS) error {
	if af.broken {
		if err := fs.Truncate(af.path, af.valid); err != nil {
			return err
		}
	}
	f, err := fs.OpenAppend(af.path)
	if err != nil {
		return err
	}
	af.f, af.broken = f, false
	return nil
}

// close releases the handle, if open.
func (af *appendFile) close() {
	if af.f != nil {
		af.f.Close()
		af.f = nil
	}
}

// journal is the daemon's durable job store.
type journal struct {
	fs        FS
	dir       string
	syncEvery int
	retry     retryPolicy
	// met counts fsyncs, durable bytes and repairs; set by the server
	// right after openJournal (all methods are nil-safe before that).
	met *serverMetrics

	closed atomic.Bool

	meta *appendFile
	mu   sync.Mutex // guards recs
	// recs holds the records files of jobs that may still append: each
	// replayed non-terminal job's and each job that appended this run.
	recs map[string]*appendFile
}

func (jr *journal) metaPath() string   { return filepath.Join(jr.dir, "journal.jsonl") }
func (jr *journal) recordsDir() string { return filepath.Join(jr.dir, "records") }
func (jr *journal) recordsPath(id string) string {
	return filepath.Join(jr.recordsDir(), id+".jsonl")
}

// replayedJob is one job reconstructed from the journal: its spec, last
// journaled state, and the intact, seed-validated record prefix already
// on disk.
type replayedJob struct {
	id      string
	spec    JobSpec
	state   State
	errmsg  string
	records []mc.Record
}

// replayState is everything openJournal learned from the data dir.
type replayState struct {
	jobs []*replayedJob // in journal (≈ submission) order
	next int            // highest numeric job id ever journaled
	// clean reports whether the journal's last entry is a clean-shutdown
	// marker (the previous process fully drained before exiting).
	clean bool
	// dropped counts semantically invalid entries that were skipped and
	// truncated counts bytes of torn/corrupt tails cut from files.
	dropped   int
	truncated int64
}

// openJournal replays the data directory and returns the journal ready
// for appending plus the replayed jobs. Only real I/O failures are
// errors: every corruption shape (torn tails, interior garbage, bogus
// entries, foreign records) degrades to truncation or skipping, never a
// panic or a wedged daemon.
func openJournal(fs FS, dir string, syncEvery int, retry retryPolicy) (*journal, *replayState, error) {
	jr := &journal{
		fs:        fs,
		dir:       dir,
		syncEvery: syncEvery,
		retry:     retry,
		recs:      map[string]*appendFile{},
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("service: journal dir: %w", err)
	}
	if err := fs.MkdirAll(jr.recordsDir()); err != nil {
		return nil, nil, fmt.Errorf("service: records dir: %w", err)
	}
	rs, valid, err := jr.replayMeta()
	if err != nil {
		return nil, nil, err
	}
	jr.meta = &appendFile{path: jr.metaPath(), valid: valid}
	for _, rj := range rs.jobs {
		if err := jr.loadRecords(rj, rs); err != nil {
			return nil, nil, err
		}
	}
	if err := jr.meta.open(fs); err != nil {
		return nil, nil, fmt.Errorf("service: open journal: %w", err)
	}
	return jr, rs, nil
}

// cut truncates a replayed file of size bytes to its valid prefix, so
// appends extend a clean line boundary, and counts the bytes cut.
func (jr *journal) cut(rs *replayState, path string, size int, valid int64) error {
	rs.truncated += int64(size) - valid
	if valid < int64(size) {
		return jr.fs.Truncate(path, valid)
	}
	return nil
}

// replayMeta parses the meta journal: the longest prefix of complete,
// well-formed lines is applied (semantically bogus entries are skipped),
// and a torn or corrupt tail is truncated away on disk so subsequent
// appends extend a clean line boundary.
func (jr *journal) replayMeta() (*replayState, int64, error) {
	rs := &replayState{}
	data, err := jr.fs.ReadFile(jr.metaPath())
	if err != nil {
		if os.IsNotExist(err) {
			return rs, 0, nil
		}
		return nil, 0, fmt.Errorf("service: read journal: %w", err)
	}
	entries, ends := mc.ScanLines[journalEntry](data)
	byID := map[string]*replayedJob{}
	deleted := map[string]bool{}
	for _, e := range entries {
		rs.applyEntry(e, byID, deleted)
	}
	var valid int64
	if len(ends) > 0 {
		valid = ends[len(ends)-1]
	}
	if err := jr.cut(rs, jr.metaPath(), len(data), valid); err != nil {
		return nil, 0, fmt.Errorf("service: truncate torn journal tail: %w", err)
	}
	// Drop deleted jobs from the replay set, preserving order.
	kept := rs.jobs[:0]
	for _, rj := range rs.jobs {
		if !deleted[rj.id] {
			kept = append(kept, rj)
		}
	}
	rs.jobs = kept
	return rs, valid, nil
}

// applyEntry folds one well-formed entry into the replay state. Entries
// that don't make sense (unknown ids, invalid specs, malformed ids) are
// counted and skipped — replay must make progress on any input.
func (rs *replayState) applyEntry(e journalEntry, byID map[string]*replayedJob, deleted map[string]bool) {
	clean := false
	defer func() { rs.clean = clean }()
	switch e.Type {
	case "submit":
		if e.Spec == nil || !jobID.MatchString(e.ID) || byID[e.ID] != nil || deleted[e.ID] {
			rs.dropped++
			return
		}
		spec := *e.Spec
		spec.Normalize()
		if spec.Validate() != nil {
			rs.dropped++
			return
		}
		if n, err := strconv.Atoi(e.ID[1:]); err == nil && n > rs.next {
			rs.next = n
		}
		rj := &replayedJob{id: e.ID, spec: spec, state: StateQueued}
		byID[e.ID] = rj
		rs.jobs = append(rs.jobs, rj)
	case "state":
		rj := byID[e.ID]
		switch e.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			rj = nil
		}
		if rj == nil {
			rs.dropped++
			return
		}
		rj.state = e.State
		rj.errmsg = e.Error
	case "delete":
		if byID[e.ID] == nil {
			rs.dropped++
			return
		}
		deleted[e.ID] = true
		delete(byID, e.ID)
	case "shutdown":
		clean = true
	default:
		rs.dropped++
	}
}

// loadRecords reads a replayed job's records file, keeps the longest
// prefix that mc.Prefix proves for the job — well-formed, contiguous (rep
// i on line i), stamped with the job's canonical name, and carrying the
// job's derived seeds — and truncates the file to that prefix so appends
// resume cleanly. Anything cut is re-executed; nothing wrong is ever
// trusted.
func (jr *journal) loadRecords(rj *replayedJob, rs *replayState) error {
	path := jr.recordsPath(rj.id)
	data, err := jr.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: read records of %s: %w", rj.id, err)
	}
	// The journal owns this file and cuts whatever it cannot prove, so a
	// record past the prefix is no error here.
	done, valid, _ := mc.Prefix(data, []mc.Job{rj.spec.MCJob()})
	if err := jr.cut(rs, path, len(data), valid); err != nil {
		return fmt.Errorf("service: truncate records of %s: %w", rj.id, err)
	}
	rj.records = done[0]
	if !rj.state.Terminal() {
		jr.recs[rj.id] = &appendFile{path: path, valid: valid}
	}
	return nil
}

// append writes line to af and, with sync set, fsyncs it; an empty line
// only fsyncs. The write and the fsync are retried as one unit; after
// each failed attempt the file is truncated back to its valid offset and
// reopened, so a partial write never leaves interior garbage. The caller
// holds af.mu.
func (jr *journal) append(af *appendFile, line []byte, sync bool) error {
	if jr.closed.Load() {
		return errJournalClosed
	}
	err := jr.retry.do(func() error {
		if af.f == nil {
			// A previous repair failed (or this is the first append):
			// finish it so the real truncate/open error surfaces.
			if err := af.open(jr.fs); err != nil {
				return err
			}
		}
		if len(line) > 0 {
			if _, err := af.f.Write(line); err != nil {
				return err
			}
		}
		if sync {
			return af.f.Sync()
		}
		return nil
	}, func() {
		jr.met.journalRepair()
		if af.f != nil {
			af.close()
			af.broken = true
		}
		_ = af.open(jr.fs) // on failure the next attempt retries the repair
	})
	if err != nil {
		return err
	}
	af.valid += int64(len(line))
	jr.met.journalWrote(len(line))
	if sync {
		af.pending = 0
		jr.met.journalFsync()
	} else {
		af.pending++
	}
	return nil
}

// appendMeta journals one entry; sync forces an fsync after the append.
func (jr *journal) appendMeta(e journalEntry, sync bool) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	jr.meta.mu.Lock()
	defer jr.meta.mu.Unlock()
	if err := jr.append(jr.meta, append(b, '\n'), sync); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	return nil
}

// submit journals a job submission (fsynced before the caller admits
// the job, so an acknowledged job is never forgotten).
func (jr *journal) submit(id string, spec JobSpec) error {
	return jr.appendMeta(journalEntry{Type: "submit", ID: id, Spec: &spec}, true)
}

// state journals a transition. Terminal states are fsynced; "running"
// is not (losing it replays the job as queued — harmless).
func (jr *journal) state(id string, st State, errmsg string) error {
	return jr.appendMeta(journalEntry{Type: "state", ID: id, State: st, Error: errmsg}, st.Terminal())
}

// records returns the job's records file, registering it on first use.
func (jr *journal) records(id string) (*appendFile, error) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.closed.Load() {
		return nil, errJournalClosed
	}
	af := jr.recs[id]
	if af == nil {
		af = &appendFile{path: jr.recordsPath(id)}
		jr.recs[id] = af
	}
	return af, nil
}

// appendRecord appends one replicate record to the job's records file,
// fsynced on every syncEvery-th unsynced append. The line is
// mc.AppendRecordLine's, the bytes sweep -out and /records write.
func (jr *journal) appendRecord(id string, rec mc.Record) error {
	af, err := jr.records(id)
	if err != nil {
		return err
	}
	af.mu.Lock()
	defer af.mu.Unlock()
	line, err := mc.AppendRecordLine(af.line[:0], rec)
	if err != nil {
		return err
	}
	af.line = line
	if err := jr.append(af, line, af.pending+1 >= jr.syncEvery); err != nil {
		return fmt.Errorf("service: journal records of %s: %w", id, err)
	}
	return nil
}

// jobTerminal records a terminal transition: the job's records file is
// fsynced and closed first, then the terminal meta entry is fsynced —
// so a journaled terminal state implies every record is durable. The
// records fsync is skipped when this process's last append to the file
// already fsynced it (nothing pending on an open handle): the file then
// holds no byte that fsync left undurable. A file this process never
// opened (a replayed job that appended nothing) is still fsynced.
func (jr *journal) jobTerminal(id string, st State, errmsg string) error {
	jr.mu.Lock()
	af := jr.recs[id]
	delete(jr.recs, id)
	jr.mu.Unlock()
	if af != nil {
		af.mu.Lock()
		var err error
		if af.pending > 0 || af.f == nil {
			err = jr.append(af, nil, true)
		}
		af.close()
		af.mu.Unlock()
		if err != nil {
			return fmt.Errorf("service: journal records sync of %s: %w", id, err)
		}
	}
	return jr.state(id, st, errmsg)
}

// readRecords returns the raw bytes of a job's records file (empty for
// a job that never produced one), for serving evicted jobs' records.
func (jr *journal) readRecords(id string) ([]byte, error) {
	data, err := jr.fs.ReadFile(jr.recordsPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// deleteJob journals a delete entry and removes the records file.
func (jr *journal) deleteJob(id string) error {
	jr.mu.Lock()
	af := jr.recs[id]
	delete(jr.recs, id)
	jr.mu.Unlock()
	if af != nil {
		af.mu.Lock()
		af.close()
		af.mu.Unlock()
	}
	if err := jr.appendMeta(journalEntry{Type: "delete", ID: id}, true); err != nil {
		return err
	}
	if err := jr.fs.Remove(jr.recordsPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// close syncs and closes every open file. With clean set it first
// appends the clean-shutdown marker — only a fully drained daemon may
// pass clean=true. Idempotent; appends racing close surface
// errJournalClosed.
func (jr *journal) close(clean bool) {
	if jr.closed.Load() {
		return
	}
	if clean {
		// Best-effort: a failed marker write just means the next start
		// replays (and finds nothing to do).
		_ = jr.appendMeta(journalEntry{Type: "shutdown"}, false)
	}
	jr.mu.Lock()
	if jr.closed.Swap(true) {
		jr.mu.Unlock()
		return
	}
	files := make([]*appendFile, 0, len(jr.recs)+1)
	for _, af := range jr.recs {
		files = append(files, af)
	}
	jr.recs = map[string]*appendFile{}
	jr.mu.Unlock()
	for _, af := range append(files, jr.meta) {
		af.mu.Lock()
		if af.f != nil {
			_ = af.f.Sync()
		}
		af.close()
		af.mu.Unlock()
	}
}
