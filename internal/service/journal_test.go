package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"plurality/internal/mc"
)

// testRetry is a tight retry budget so failing tests don't sleep long.
var testRetry = retryPolicy{attempts: 3, backoff: time.Millisecond}

func openTestJournal(t *testing.T, dir string) (*journal, *replayState) {
	t.Helper()
	jr, rs, err := openJournal(OSFS(), dir, 4, testRetry)
	if err != nil {
		t.Fatal(err)
	}
	return jr, rs
}

// specRecords fabricates the records a real run of spec would produce,
// with the correct name and per-replicate seeds.
func specRecords(spec JobSpec, n int) []mc.Record {
	seeds := mc.RepSeeds(spec.Seed, spec.Replicates)
	recs := make([]mc.Record, n)
	for i := range recs {
		recs[i] = mc.Record{Job: spec.Name(), Rep: i, Seed: seeds[i], Rounds: 5 + i, Success: true}
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()

	jr, rs := openTestJournal(t, dir)
	if len(rs.jobs) != 0 || rs.clean {
		t.Fatalf("fresh dir replayed %d jobs, clean=%v", len(rs.jobs), rs.clean)
	}
	if err := jr.submit("j1", spec); err != nil {
		t.Fatal(err)
	}
	if err := jr.state("j1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	recs := specRecords(spec, 3)
	for _, rec := range recs {
		if err := jr.appendRecord("j1", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.jobTerminal("j1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	jr.close(false)

	jr2, rs2 := openTestJournal(t, dir)
	defer jr2.close(false)
	if len(rs2.jobs) != 1 || rs2.clean || rs2.dropped != 0 || rs2.truncated != 0 {
		t.Fatalf("replay: %d jobs clean=%v dropped=%d truncated=%d", len(rs2.jobs), rs2.clean, rs2.dropped, rs2.truncated)
	}
	rj := rs2.jobs[0]
	if rj.id != "j1" || rj.state != StateDone || len(rj.records) != 3 {
		t.Fatalf("replayed job: id=%s state=%s records=%d", rj.id, rj.state, len(rj.records))
	}
	for i, rec := range rj.records {
		if rec != recs[i] {
			t.Fatalf("record %d replayed as %+v", i, rec)
		}
	}
	if rs2.next != 1 {
		t.Fatalf("next counter %d, want 1", rs2.next)
	}
}

func TestJournalCleanShutdownMarker(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()

	jr, _ := openTestJournal(t, dir)
	if err := jr.submit("j1", spec); err != nil {
		t.Fatal(err)
	}
	jr.close(true)

	_, rs := openTestJournal(t, dir)
	if !rs.clean {
		t.Fatal("clean close not reflected by replay")
	}
	// Any activity after the marker makes the journal dirty again: the
	// marker only certifies the *last* shutdown.
	jr2, _ := openTestJournal(t, dir)
	if err := jr2.state("j1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	jr2.close(false)
	_, rs = openTestJournal(t, dir)
	if rs.clean {
		t.Fatal("journal still reads clean after post-marker activity")
	}
}

func TestJournalReplayTruncatesTornMetaTail(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()
	jr, _ := openTestJournal(t, dir)
	if err := jr.submit("j1", spec); err != nil {
		t.Fatal(err)
	}
	jr.close(false)

	metaPath := filepath.Join(dir, "journal.jsonl")
	intact, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, intact...), []byte(`{"type":"state","id":"j1","sta`)...)
	if err := os.WriteFile(metaPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	jr2, rs := openTestJournal(t, dir)
	defer jr2.close(false)
	if len(rs.jobs) != 1 || rs.jobs[0].state != StateQueued {
		t.Fatalf("torn tail replay: %d jobs, state %v", len(rs.jobs), rs.jobs)
	}
	if rs.truncated == 0 {
		t.Fatal("torn bytes not counted")
	}
	onDisk, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(intact) {
		t.Fatalf("torn tail not truncated on disk: %q", onDisk)
	}
}

func TestJournalReplaySkipsBogusEntries(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()
	jr, _ := openTestJournal(t, dir)
	if err := jr.submit("j2", spec); err != nil {
		t.Fatal(err)
	}
	jr.close(false)

	metaPath := filepath.Join(dir, "journal.jsonl")
	bogus := []string{
		`{"type":"frobnicate"}`,                                    // unknown type
		`{"type":"state","id":"j99","state":"done"}`,               // state for unknown job
		`{"type":"state","id":"j2","state":"exploded"}`,            // unknown state value
		`{"type":"submit","id":"../../etc/passwd","spec":{"n":1}}`, // malicious id
		`{"type":"submit","id":"j3","spec":{"n":-5,"k":1}}`,        // invalid spec
		`{"type":"submit","id":"j2","spec":{"n":1000,"k":2}}`,      // duplicate id
		`{"type":"delete","id":"j77"}`,                             // delete of unknown job
	}
	f, err := os.OpenFile(metaPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bogus {
		if _, err := f.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	jr2, rs := openTestJournal(t, dir)
	defer jr2.close(false)
	if len(rs.jobs) != 1 || rs.jobs[0].id != "j2" {
		t.Fatalf("bogus entries changed the replay set: %+v", rs.jobs)
	}
	if rs.dropped != len(bogus) {
		t.Fatalf("dropped %d entries, want %d", rs.dropped, len(bogus))
	}
	if rs.next != 2 {
		t.Fatalf("next counter %d, want 2 (malicious ids must not advance it)", rs.next)
	}
}

func TestJournalRecordsPrefixValidation(t *testing.T) {
	spec := smallSpec()
	spec.Normalize()
	good := specRecords(spec, 4)

	cases := []struct {
		name   string
		mutate func(recs []mc.Record) []mc.Record
		keep   int
	}{
		{"wrong seed", func(r []mc.Record) []mc.Record { r[2].Seed++; return r }, 2},
		{"wrong name", func(r []mc.Record) []mc.Record { r[1].Job = "someone-else"; return r }, 1},
		{"rep gap", func(r []mc.Record) []mc.Record { r[3].Rep = 7; return r }, 3},
		{"foreign prefix", func(r []mc.Record) []mc.Record { r[0].Rep = 1; return r }, 0},
		{"all good", func(r []mc.Record) []mc.Record { return r }, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jr, _ := openTestJournal(t, dir)
			if err := jr.submit("j1", spec); err != nil {
				t.Fatal(err)
			}
			recs := tc.mutate(append([]mc.Record(nil), good...))
			for _, rec := range recs {
				if err := jr.appendRecord("j1", rec); err != nil {
					t.Fatal(err)
				}
			}
			jr.close(false)

			jr2, rs := openTestJournal(t, dir)
			defer jr2.close(false)
			if len(rs.jobs) != 1 || len(rs.jobs[0].records) != tc.keep {
				t.Fatalf("kept %d records, want %d", len(rs.jobs[0].records), tc.keep)
			}
			// The file itself was cut to the trusted prefix, so appends
			// resume on a clean boundary.
			data, err := os.ReadFile(filepath.Join(dir, "records", "j1.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			kept, valid, err := mc.Prefix(data, []mc.Job{spec.MCJob()})
			if err != nil || len(kept[0]) != tc.keep || valid != int64(len(data)) {
				t.Fatalf("on-disk records: %d entries, %d of %d bytes valid (%v)", len(kept[0]), valid, len(data), err)
			}
		})
	}
}

func TestJournalDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()
	jr, _ := openTestJournal(t, dir)
	if err := jr.submit("j1", spec); err != nil {
		t.Fatal(err)
	}
	for _, rec := range specRecords(spec, 2) {
		if err := jr.appendRecord("j1", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.jobTerminal("j1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := jr.deleteJob("j1"); err != nil {
		t.Fatal(err)
	}
	jr.close(false)

	if _, err := os.Stat(filepath.Join(dir, "records", "j1.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("records file survived delete: %v", err)
	}
	jr2, rs := openTestJournal(t, dir)
	defer jr2.close(false)
	if len(rs.jobs) != 0 {
		t.Fatalf("deleted job replayed: %+v", rs.jobs)
	}
	if rs.next != 1 {
		t.Fatalf("next counter %d, want 1 (deleted ids must never be reused)", rs.next)
	}
}

func TestJournalAppendAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Normalize()
	jr, _ := openTestJournal(t, dir)
	jr.close(false)
	if err := jr.submit("j1", spec); !errors.Is(err, errJournalClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := jr.appendRecord("j1", mc.Record{}); !errors.Is(err, errJournalClosed) {
		t.Fatalf("record append after close: %v", err)
	}
}

func TestRetryPolicy(t *testing.T) {
	boom := errors.New("boom")
	fails, repairs := 2, 0
	err := testRetry.do(func() error {
		if fails > 0 {
			fails--
			return boom
		}
		return nil
	}, func() { repairs++ })
	if err != nil || repairs != 2 {
		t.Fatalf("transient failure: err=%v repairs=%d", err, repairs)
	}

	calls := 0
	err = testRetry.do(func() error { calls++; return boom }, nil)
	if !errors.Is(err, boom) || calls != testRetry.attempts {
		t.Fatalf("budget spent: err=%v calls=%d", err, calls)
	}
}
