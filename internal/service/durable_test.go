package service_test

// The crash matrix: every test in this file boots the server on the
// fault-injecting in-memory filesystem (internal/service/faultfs),
// hurts it — power cut, torn tail, failing disk — and checks the
// tentpole property: the daemon either recovers deterministically
// (resumed record streams byte-identical to a crash-free run) or lands
// on an explicit failed state. Never a hang, never a panic, never wrong
// records. The same scenarios against a real process and a real disk
// live in cmd/pluralityd's lifecycle tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plurality/internal/service"
	"plurality/internal/service/faultfs"
)

const dataDir = "data"

// durableOpts is the standard durable configuration: a tight sync
// interval so crashes keep interesting prefixes, and a fast retry
// budget so failure tests don't sleep.
func durableOpts(fs *faultfs.FS) service.Options {
	return service.Options{
		Workers: 2, DataDir: dataDir, FS: fs,
		SyncEvery: 2, JournalRetries: 3, JournalBackoff: time.Millisecond,
	}
}

// boot starts a server on fs; the caller owns Close (crash tests close
// and restart explicitly).
func boot(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s)
}

// resumableSpec finishes in well under a second uninterrupted, but has
// enough replicates that a poll can catch it mid-run.
func resumableSpec() service.JobSpec {
	return service.JobSpec{Rule: "3majority", Engine: "sampled", N: 50_000, K: 2,
		Bias: "0", Seed: 21, Replicates: 12, MaxRounds: 20}
}

func submit(t *testing.T, ts *httptest.Server, spec service.JobSpec, query string) (int, service.JobInfo, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info service.JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("bad %d body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, info, string(raw)
}

func jobInfo(t *testing.T, ts *httptest.Server, id string) service.JobInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func waitJob(t *testing.T, ts *httptest.Server, id, what string, pred func(service.JobInfo) bool) service.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := jobInfo(t, ts, id)
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (state %s, %d records)", id, what, info.State, info.Records)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func recordBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET records %s: status %d (%s)", id, resp.StatusCode, raw)
	}
	return raw
}

// baseline runs spec to completion on a throwaway in-memory server and
// returns the canonical record bytes.
func baseline(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	s, ts := boot(t, service.Options{Workers: 2})
	defer func() { ts.Close(); s.Close() }()
	status, info, raw := submit(t, ts, spec, "?wait=1")
	if status != http.StatusOK || info.State != service.StateDone {
		t.Fatalf("baseline run: status %d state %s (%s)", status, info.State, raw)
	}
	return recordBytes(t, ts, info.ID)
}

// TestCrashResumeByteIdentical is the tentpole e2e at the package
// level: kill the server at three different instants (before any
// record, mid-run, and with a torn trailing record write), restart it
// on the post-crash disk image, and require the finished job's record
// stream to be byte-identical to a crash-free run — same job ID, same
// bytes, only the lost suffix re-executed.
func TestCrashResumeByteIdentical(t *testing.T) {
	spec := resumableSpec()
	want := baseline(t, spec)

	crashes := []struct {
		name  string
		crash func(fs *faultfs.FS, ts *httptest.Server, id string) *faultfs.FS
	}{
		{"before any record", func(fs *faultfs.FS, ts *httptest.Server, id string) *faultfs.FS {
			return fs.Crash()
		}},
		{"mid-run", func(fs *faultfs.FS, ts *httptest.Server, id string) *faultfs.FS {
			waitJob(t, ts, id, ">=3 records", func(i service.JobInfo) bool { return i.Records >= 3 })
			return fs.Crash()
		}},
		{"torn record tail", func(fs *faultfs.FS, ts *httptest.Server, id string) *faultfs.FS {
			waitJob(t, ts, id, ">=3 records", func(i service.JobInfo) bool { return i.Records >= 3 })
			return fs.CrashKeep(7) // keep 7 unsynced bytes: a half-written record
		}},
	}
	for _, tc := range crashes {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New()
			s1, ts1 := boot(t, durableOpts(fs))
			status, info, raw := submit(t, ts1, spec, "?wait=0")
			if status != http.StatusAccepted {
				t.Fatalf("submit: status %d (%s)", status, raw)
			}
			post := tc.crash(fs, ts1, info.ID)
			ts1.Close()
			s1.Close()

			s2, ts2 := boot(t, durableOpts(post))
			defer func() { ts2.Close(); s2.Close() }()
			done := waitJob(t, ts2, info.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
			if done.Records != spec.Replicates {
				t.Fatalf("resumed job finished with %d records, want %d", done.Records, spec.Replicates)
			}
			if got := recordBytes(t, ts2, info.ID); !bytes.Equal(got, want) {
				t.Fatalf("resumed records differ from the crash-free run:\n got %d bytes\nwant %d bytes", len(got), len(want))
			}
		})
	}
}

// TestCrashAfterTerminalKeepsJobDone proves the sync-before-terminal
// ordering: once a job is journaled done, a crash cannot lose records —
// the restarted server serves them without re-running anything.
func TestCrashAfterTerminalKeepsJobDone(t *testing.T) {
	spec := resumableSpec()
	want := baseline(t, spec)

	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	status, info, _ := submit(t, ts1, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitJob(t, ts1, info.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
	post := fs.Crash()
	ts1.Close()
	s1.Close()

	s2, ts2 := boot(t, durableOpts(post))
	defer func() { ts2.Close(); s2.Close() }()
	got := jobInfo(t, ts2, info.ID)
	if got.State != service.StateDone || got.Records != spec.Replicates {
		t.Fatalf("replayed terminal job: state %s, %d records", got.State, got.Records)
	}
	if b := recordBytes(t, ts2, info.ID); !bytes.Equal(b, want) {
		t.Fatal("journaled records differ from the crash-free run")
	}
	// A journaled-done job is never re-executed: the restarted server
	// performed no writes at all (replay is read-and-truncate only).
	if writes, _ := post.Counts(); writes != 0 {
		t.Fatalf("restart re-ran a journaled-done job (%d writes)", writes)
	}
}

// TestTerminalFsyncsOnlyPendingRecords counts the fsyncs of one
// synchronous job under durableOpts (SyncEvery 2). The records file is
// fsynced on every second record, and again at the terminal transition
// only when a record is still unsynced; the meta journal fsyncs the
// submit and the terminal state. A 12-replicate job therefore makes
// 6 + 0 + 2 fsyncs, one fewer than a terminal fsync of a synced file
// would, and a 13-replicate job 6 + 1 + 2.
func TestTerminalFsyncsOnlyPendingRecords(t *testing.T) {
	for _, tc := range []struct{ reps, syncs int }{{12, 8}, {13, 9}} {
		fs := faultfs.New()
		s, ts := boot(t, durableOpts(fs))
		spec := service.JobSpec{Rule: "3majority", Engine: "multinomial", N: 100_000, K: 4,
			Seed: 9, Replicates: tc.reps}
		_, before := fs.Counts()
		status, info, raw := submit(t, ts, spec, "?wait=1")
		_, after := fs.Counts()
		ts.Close()
		s.Close()
		if status != http.StatusOK || info.State != service.StateDone || info.Records != tc.reps {
			t.Fatalf("%d replicates: status %d state %s, %d records (%s)", tc.reps, status, info.State, info.Records, raw)
		}
		if got := after - before; got != tc.syncs {
			t.Errorf("%d-replicate job made %d fsyncs, want %d", tc.reps, got, tc.syncs)
		}
	}
}

// TestTransientRecordWriteFailureRetried injects a single failing,
// partially-landed record write; the retry must repair the file
// (truncating the interior garbage) and the job must complete with
// byte-identical records.
func TestTransientRecordWriteFailureRetried(t *testing.T) {
	spec := resumableSpec()
	want := baseline(t, spec)

	fs := faultfs.New()
	// The 4th write to the records file fails after landing 3 bytes.
	fs.FailWrites("records/", 4, 1, 3)
	s, ts := boot(t, durableOpts(fs))
	defer func() { ts.Close(); s.Close() }()
	status, info, _ := submit(t, ts, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	done := waitJob(t, ts, info.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
	if done.Records != spec.Replicates {
		t.Fatalf("finished with %d records", done.Records)
	}
	if got := recordBytes(t, ts, info.ID); !bytes.Equal(got, want) {
		t.Fatal("records differ after a repaired transient write failure")
	}
	if got := fs.Bytes(dataDir + "/records/" + info.ID + ".jsonl"); !bytes.Equal(got, want) {
		t.Fatal("journaled records file differs after repair (interior garbage left behind?)")
	}
}

// TestPermanentWriteFailureLatchesFailed breaks the records file for
// good: after the retry budget is spent the job must land on an
// explicit failed state (with the journal error visible), and the
// server must keep serving.
func TestPermanentWriteFailureLatchesFailed(t *testing.T) {
	fs := faultfs.New()
	fs.FailWrites("records/", 1, 1<<30, 0)
	s, ts := boot(t, durableOpts(fs))
	defer func() { ts.Close(); s.Close() }()
	status, info, _ := submit(t, ts, resumableSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	failed := waitJob(t, ts, info.ID, "failed", func(i service.JobInfo) bool { return i.State.Terminal() })
	if failed.State != service.StateFailed || !strings.Contains(failed.Error, "journal") {
		t.Fatalf("broken-disk job: state %s error %q, want failed with a journal error", failed.State, failed.Error)
	}
	// The disk heals; the server is still usable.
	fs.ClearFaults()
	status, info2, raw := submit(t, ts, resumableSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("post-failure submit: status %d (%s)", status, raw)
	}
	waitJob(t, ts, info2.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
}

// TestTransientSyncFailureRetried fails one fsync, of a records file
// and of the meta journal: the write and its fsync are retried as one
// unit, after the file is cut back to its last good line and reopened,
// so the job ends done with no line journaled twice.
func TestTransientSyncFailureRetried(t *testing.T) {
	spec := resumableSpec()
	want := baseline(t, spec)
	for _, tc := range []struct{ name, path string }{
		{"records", "records/"},
		{"meta", "journal.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New()
			fs.FailSyncs(tc.path, 1, 1)
			s, ts := boot(t, durableOpts(fs))
			defer func() { ts.Close(); s.Close() }()
			status, info, _ := submit(t, ts, spec, "?wait=0")
			if status != http.StatusAccepted {
				t.Fatalf("submit status %d", status)
			}
			waitJob(t, ts, info.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
			if got := recordBytes(t, ts, info.ID); !bytes.Equal(got, want) {
				t.Fatal("records differ after a retried fsync")
			}
			if got := fs.Bytes(dataDir + "/records/" + info.ID + ".jsonl"); !bytes.Equal(got, want) {
				t.Fatal("journaled records file differs after a retried fsync")
			}
			if n := bytes.Count(fs.Bytes(dataDir+"/journal.jsonl"), []byte(`"type":"submit"`)); n != 1 {
				t.Fatalf("meta journal holds %d submit entries, want 1", n)
			}
		})
	}
}

// TestPermanentSyncFailureLatchesFailed makes every fsync of the records
// file fail: the job lands on failed with the journal error visible, and
// once the disk heals the next job runs to done.
func TestPermanentSyncFailureLatchesFailed(t *testing.T) {
	fs := faultfs.New()
	fs.FailSyncs("records/", 1, 1<<30)
	s, ts := boot(t, durableOpts(fs))
	defer func() { ts.Close(); s.Close() }()
	status, info, _ := submit(t, ts, resumableSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	failed := waitJob(t, ts, info.ID, "failed", func(i service.JobInfo) bool { return i.State.Terminal() })
	if failed.State != service.StateFailed || !strings.Contains(failed.Error, "journal") {
		t.Fatalf("unsyncable job: state %s error %q, want failed with a journal error", failed.State, failed.Error)
	}
	fs.ClearFaults()
	status, info2, raw := submit(t, ts, resumableSpec(), "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("post-failure submit: status %d (%s)", status, raw)
	}
	waitJob(t, ts, info2.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
}

// TestSubmitJournalFailure500 breaks the meta journal: a submission
// that cannot be made durable must be refused (500) and leave no job
// behind — the acknowledged-implies-durable half of the contract.
func TestSubmitJournalFailure500(t *testing.T) {
	fs := faultfs.New()
	s, ts := boot(t, durableOpts(fs))
	defer func() { ts.Close(); s.Close() }()
	fs.FailWrites("journal.jsonl", 1, 1<<30, 0)
	status, _, raw := submit(t, ts, resumableSpec(), "?wait=0")
	if status != http.StatusInternalServerError || !strings.Contains(raw, "journal") {
		t.Fatalf("unjournalable submit: status %d (%s), want 500", status, raw)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || len(listing.Jobs) != 0 {
		t.Fatalf("refused submission left %d jobs (err %v)", len(listing.Jobs), err)
	}
}

// TestDrainResumesCancelledJobs is the graceful half of the shutdown
// story: Drain refuses new work with 503 + Retry-After, cancels the
// running job WITHOUT journaling it terminal, and stamps the
// clean-shutdown marker; the restarted server resumes the job from its
// record prefix as if nothing happened.
func TestDrainResumesCancelledJobs(t *testing.T) {
	spec := resumableSpec()
	spec.Replicates = service.MaxReplicates // never finishes on its own

	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	status, info, _ := submit(t, ts1, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitJob(t, ts1, info.ID, ">=2 records", func(i service.JobInfo) bool { return i.Records >= 2 })

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining refuses new submissions.
	status, _, raw := submit(t, ts1, resumableSpec(), "?wait=0")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d (%s), want 503", status, raw)
	}
	// The journal carries the clean-shutdown marker...
	meta := fs.Bytes(dataDir + "/journal.jsonl")
	lines := bytes.Split(bytes.TrimRight(meta, "\n"), []byte("\n"))
	if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`"shutdown"`)) {
		t.Fatalf("journal's last entry after drain is %s, want the shutdown marker", last)
	}
	// ...and no terminal entry for the drained job: it must replay.
	if bytes.Contains(meta, []byte(`"cancelled"`)) {
		t.Fatal("drain journaled the job terminal; it would not resume")
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := boot(t, durableOpts(fs))
	defer func() { ts2.Close(); s2.Close() }()
	resumed := waitJob(t, ts2, info.ID, "running again", func(i service.JobInfo) bool { return i.State == service.StateRunning })
	if resumed.Records < 2 {
		t.Fatalf("resumed job lost its prefix: %d records", resumed.Records)
	}
	// A user cancel IS terminal and journaled: a third boot keeps it.
	resp, err := http.Post(ts2.URL+"/v1/jobs/"+info.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJob(t, ts2, info.ID, "cancelled", func(i service.JobInfo) bool { return i.State == service.StateCancelled })
	atCancel := recordBytes(t, ts2, info.ID)
	ts2.Close()
	s2.Close()

	s3, ts3 := boot(t, durableOpts(fs))
	defer func() { ts3.Close(); s3.Close() }()
	final := jobInfo(t, ts3, info.ID)
	if final.State != service.StateCancelled {
		t.Fatalf("user-cancelled job replayed as %s, want cancelled", final.State)
	}
	// The records completed before the cancel survive byte-exactly.
	if got := recordBytes(t, ts3, info.ID); len(got) == 0 || !bytes.Equal(got, atCancel) {
		t.Fatalf("cancelled job's records changed across restart: %d bytes, had %d at cancel time", len(got), len(atCancel))
	}
}

// TestRetentionEvictsToJournal floods a Retain=1 server with terminal
// jobs: evicted ones keep answering the info endpoint from their
// tombstone and serve records straight from the journal file.
func TestRetentionEvictsToJournal(t *testing.T) {
	spec := resumableSpec()
	want := baseline(t, spec)

	fs := faultfs.New()
	opts := durableOpts(fs)
	opts.Retain = 1
	s, ts := boot(t, opts)
	defer func() { ts.Close(); s.Close() }()

	var ids []string
	for i := 0; i < 3; i++ {
		status, info, raw := submit(t, ts, spec, "?wait=1")
		if status != http.StatusOK {
			t.Fatalf("sync submit %d: status %d (%s)", i, status, raw)
		}
		ids = append(ids, info.ID)
	}
	// j1 and j2 are evicted (only the last terminal job is retained),
	// but their snapshots survive as tombstones...
	for _, id := range ids[:2] {
		info := jobInfo(t, ts, id)
		if info.State != service.StateDone || info.Records != spec.Replicates || info.Aggregate == nil {
			t.Fatalf("evicted %s tombstone: state %s records %d aggregate %v", id, info.State, info.Records, info.Aggregate)
		}
		// ...and their records are served from the journal, byte-exact.
		if got := recordBytes(t, ts, id); !bytes.Equal(got, want) {
			t.Fatalf("evicted %s records differ from the canonical bytes", id)
		}
	}
}

// TestRetentionWithoutJournalIs410 is the in-memory flavor: evicted
// records are gone for good, and the API says so instead of hanging or
// serving garbage.
func TestRetentionWithoutJournalIs410(t *testing.T) {
	spec := resumableSpec()
	s, ts := boot(t, service.Options{Workers: 2, Retain: 1})
	defer func() { ts.Close(); s.Close() }()
	var first string
	for i := 0; i < 2; i++ {
		status, info, raw := submit(t, ts, spec, "?wait=1")
		if status != http.StatusOK {
			t.Fatalf("sync submit %d: status %d (%s)", i, status, raw)
		}
		if i == 0 {
			first = info.ID
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first + "/records")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted in-memory records: status %d, want 410", resp.StatusCode)
	}
	// The tombstone info endpoint still works.
	if info := jobInfo(t, ts, first); info.State != service.StateDone || info.Records != spec.Replicates {
		t.Fatalf("tombstone info: %+v", info)
	}
}

// TestDeleteEndpoint covers the DELETE lifecycle: 409 while running,
// 204 once terminal (removing the journal file too, proven by the job
// staying gone across a restart), 404 after.
func TestDeleteEndpoint(t *testing.T) {
	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	spec := resumableSpec()
	spec.Replicates = service.MaxReplicates
	status, info, _ := submit(t, ts1, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitJob(t, ts1, info.ID, "running", func(i service.JobInfo) bool { return i.State == service.StateRunning })

	del := func(ts *httptest.Server, id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(ts1, info.ID); code != http.StatusConflict {
		t.Fatalf("DELETE running job: status %d, want 409", code)
	}
	resp, err := http.Post(ts1.URL+"/v1/jobs/"+info.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJob(t, ts1, info.ID, "cancelled", func(i service.JobInfo) bool { return i.State.Terminal() })
	if code := del(ts1, info.ID); code != http.StatusNoContent {
		t.Fatalf("DELETE terminal job: status %d, want 204", code)
	}
	if code := del(ts1, info.ID); code != http.StatusNotFound {
		t.Fatalf("DELETE deleted job: status %d, want 404", code)
	}
	if got := fs.Bytes(dataDir + "/records/" + info.ID + ".jsonl"); got != nil {
		t.Fatalf("records file survived DELETE: %d bytes", len(got))
	}
	ts1.Close()
	s1.Close()

	// The deletion is durable: a restart does not resurrect the job.
	s2, ts2 := boot(t, durableOpts(fs))
	defer func() { ts2.Close(); s2.Close() }()
	resp, err = http.Get(ts2.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job after restart: status %d, want 404", resp.StatusCode)
	}
}

// TestDeletedIDNeverReused is the regression for the ID-reuse hole:
// deleting the highest-ID job and restarting must not hand that ID to a
// new submission — the reused ID's submit entry would sit after the old
// delete entry in the journal, and the next replay would silently drop
// the acknowledged job.
func TestDeletedIDNeverReused(t *testing.T) {
	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	status, info, raw := submit(t, ts1, resumableSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	req, err := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s: status %d", info.ID, resp.StatusCode)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := boot(t, durableOpts(fs))
	status, info2, raw := submit(t, ts2, resumableSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("post-restart submit: status %d (%s)", status, raw)
	}
	if info2.ID == info.ID {
		t.Fatalf("new submission reused deleted job's ID %s", info.ID)
	}
	ts2.Close()
	s2.Close()

	// The acknowledged job survives the next replay intact.
	s3, ts3 := boot(t, durableOpts(fs))
	defer func() { ts3.Close(); s3.Close() }()
	if got := jobInfo(t, ts3, info2.ID); got.State != service.StateDone {
		t.Fatalf("job %s replayed as %s, want done", info2.ID, got.State)
	}
}

// TestMetaRepairSurvivesTruncateFailure breaks the repair path itself:
// the submit append fails after landing a partial line AND the repair's
// truncate fails once. The retry must redo the repair and land the
// entry — with only the broken closed handle kept (the old behavior),
// the second and last attempt would fail on "file already closed" and
// the submission would be refused.
func TestMetaRepairSurvivesTruncateFailure(t *testing.T) {
	fs := faultfs.New()
	opts := durableOpts(fs)
	opts.JournalRetries = 2
	s1, ts1 := boot(t, opts)
	fs.FailWrites("journal.jsonl", 1, 1, 3)
	fs.FailTruncates("journal.jsonl", 1, 1)
	status, info, raw := submit(t, ts1, resumableSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	ts1.Close()
	s1.Close()

	// The repaired journal replays cleanly: no interior garbage from the
	// partial write, and the job comes back done.
	s2, ts2 := boot(t, durableOpts(fs))
	defer func() { ts2.Close(); s2.Close() }()
	if got := jobInfo(t, ts2, info.ID); got.State != service.StateDone {
		t.Fatalf("job %s replayed as %s, want done", info.ID, got.State)
	}
}

// TestCorruptJournalNeverWedges scribbles over the middle of the meta
// journal and the records file; the restarted server must come up
// serving (the damage degrades to truncation/skipping) rather than
// refuse to boot.
func TestCorruptJournalNeverWedges(t *testing.T) {
	spec := resumableSpec()
	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	status, info, _ := submit(t, ts1, spec, "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit status %d", status)
	}
	ts1.Close()
	s1.Close()

	fs.Corrupt(dataDir+"/journal.jsonl", 40, []byte{0xff, 0x00, 0x7f})
	fs.Corrupt(dataDir+"/records/"+info.ID+".jsonl", 10, []byte("XX"))

	s2, ts2 := boot(t, durableOpts(fs))
	defer func() { ts2.Close(); s2.Close() }()
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after corruption: %d", resp.StatusCode)
	}
}

// TestCorruptJournalCutStartsReissuedIDFresh cuts the meta journal at a
// job's submit line, as replay cuts a corrupt or torn journal to its
// valid prefix: the restarted daemon forgets that job and every later
// one, but not their records files, and issues the forgotten id again.
// The new job must start from an empty records file, so its records are
// exactly its own: served live, served from the journal after eviction,
// and replayed after one more restart.
func TestCorruptJournalCutStartsReissuedIDFresh(t *testing.T) {
	first := service.JobSpec{Rule: "3majority", Engine: "multinomial", N: 100_000, K: 4, Seed: 9, Replicates: 2}
	forgotten := first
	forgotten.Seed, forgotten.Replicates = 10, 3
	reissued := first
	reissued.Seed = 11
	want := baseline(t, reissued)

	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	var ids []string
	for _, spec := range []service.JobSpec{first, forgotten} {
		status, info, raw := submit(t, ts1, spec, "?wait=1")
		if status != http.StatusOK {
			t.Fatalf("submit: status %d (%s)", status, raw)
		}
		ids = append(ids, info.ID)
	}
	ts1.Close()
	s1.Close()

	journal := dataDir + "/journal.jsonl"
	meta := fs.Bytes(journal)
	cut := bytes.Index(meta, []byte(`{"type":"submit","id":"`+ids[1]+`"`))
	if cut < 0 {
		t.Fatalf("no submit line for %s in the journal", ids[1])
	}
	if err := fs.Truncate(journal, int64(cut)); err != nil {
		t.Fatal(err)
	}

	opts := durableOpts(fs)
	opts.Retain = 1
	s2, ts2 := boot(t, opts)
	status, info, raw := submit(t, ts2, reissued, "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("post-cut submit: status %d (%s)", status, raw)
	}
	if info.ID != ids[1] {
		t.Fatalf("post-cut submission got id %s; the test needs the forgotten id %s", info.ID, ids[1])
	}
	if got := recordBytes(t, ts2, info.ID); !bytes.Equal(got, want) {
		t.Fatalf("reissued %s serves %d record lines, want its own %d", info.ID, bytes.Count(got, []byte("\n")), reissued.Replicates)
	}
	// One more terminal job evicts the reissued one (Retain 1), whose
	// records are then served from its journal file.
	if status, _, raw := submit(t, ts2, first, "?wait=1"); status != http.StatusOK {
		t.Fatalf("evicting submit: status %d (%s)", status, raw)
	}
	if got := recordBytes(t, ts2, info.ID); !bytes.Equal(got, want) {
		t.Fatalf("evicted %s serves %d record lines, want its own %d", info.ID, bytes.Count(got, []byte("\n")), reissued.Replicates)
	}
	ts2.Close()
	s2.Close()

	s3, ts3 := boot(t, opts)
	defer func() { ts3.Close(); s3.Close() }()
	if got := jobInfo(t, ts3, info.ID); got.State != service.StateDone || got.Records != reissued.Replicates {
		t.Fatalf("replayed %s: state %s, %d records, want done with %d", info.ID, got.State, got.Records, reissued.Replicates)
	}
	if got := recordBytes(t, ts3, info.ID); !bytes.Equal(got, want) {
		t.Fatalf("replayed %s records differ from its own", info.ID)
	}
}
