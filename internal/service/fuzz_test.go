package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"plurality/internal/mc"
)

// FuzzSpecJSON feeds arbitrary request bodies through the exact
// admission path the server uses (decode → Normalize → Validate) and
// checks the validation contract: whatever JSON arrives, validation
// never panics, and any spec it accepts can be compiled to an mc.Job —
// and, for small populations, executed — without panicking. This is the
// property that keeps a hostile request from crashing the shared worker
// pool. Every decoded spec also goes through the CLIs' check (Check, on
// the spec as decoded and as normalized): it must not panic, and it must
// accept every spec Validate accepts. Only Validate-accepted specs are
// executed, since Check admits uncapped h and n.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"n": 100000, "k": 8, "seed": 1, "replicates": 5}`))
	f.Add([]byte(`{"rule": "median", "engine": "sampled", "n": 1000, "k": 4, "bias": "17"}`))
	f.Add([]byte(`{"rule": "hplurality:3", "n": 500, "k": 3, "max_rounds": 50}`))
	f.Add([]byte(`{"engine": "graph", "graph": "torus", "n": 100, "k": 2}`))
	f.Add([]byte(`{"engine": "graph", "graph": "regular:4", "n": 64, "k": 4}`))
	f.Add([]byte(`{"engine": "graph", "graph": "gnp:0.5", "n": 32, "k": 2}`))
	f.Add([]byte(`{"rule": "undecided", "n": 1000, "k": 4}`))
	f.Add([]byte(`{"rule": "2choices-keepown", "n": 100, "k": 2}`))
	f.Add([]byte(`{"n": -1, "k": 0, "bias": "zillions"}`))
	f.Add([]byte(`{"engine": "graph", "graph": "regular:-0", "n": 9, "k": 2, "bias": "9"}`))
	f.Add([]byte(`{"rule":"hplurality:100000000","n":2,"k":2,"bias":"0","max_rounds":1}`))
	f.Add([]byte(`{"engine": "graph", "graph": "torus", "n": 9223372036854775807, "k": 2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		raw := spec
		_ = raw.Check()
		spec.Normalize()
		checkErr := spec.Check()
		if err := spec.Validate(); err != nil {
			return
		}
		if checkErr != nil {
			t.Fatalf("Check rejected a spec Validate accepts: %v", checkErr)
		}
		// An accepted spec must compile…
		job := spec.MCJob()
		if job.Name == "" || job.Replicates != spec.Replicates {
			t.Fatalf("accepted spec compiled to a malformed job: %+v", job)
		}
		if spec.Cost() < 0 {
			t.Fatalf("accepted spec has negative cost %d", spec.Cost())
		}
		// …and, when the population is small enough to afford it, one
		// clipped replicate must execute without panicking (this drives the
		// engine and graph constructors with fuzzer-chosen dimensions).
		if spec.N > 512 {
			return
		}
		clipped := spec
		clipped.Replicates = 1
		clipped.MaxRounds = 2
		if err := clipped.Validate(); err != nil {
			t.Fatalf("clipping a valid spec invalidated it: %v", err)
		}
		rec := clipped.MCJob().New(mc.RepSeeds(clipped.Seed, 1)[0])()
		if rec.Rounds < 0 || rec.Rounds > 2 {
			t.Fatalf("clipped replicate reported %d rounds", rec.Rounds)
		}
	})
}

// memFS is the minimal in-memory FS the fuzz target runs against. The
// real-filesystem behavior is covered by the journal unit tests; the
// fuzzer avoids the disk so an exec costs microseconds instead of
// fsync-bound milliseconds (the coverage-minimization phase re-runs the
// body thousands of times per interesting input, which makes real
// fsyncs prohibitive).
type memFS struct{ files map[string][]byte }

func (m *memFS) MkdirAll(string) error { return nil }
func (m *memFS) OpenAppend(p string) (File, error) {
	if _, ok := m.files[p]; !ok {
		m.files[p] = []byte{}
	}
	return &memFile{fs: m, path: p}, nil
}
func (m *memFS) ReadFile(p string) ([]byte, error) {
	b, ok := m.files[p]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: p, Err: os.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}
func (m *memFS) Truncate(p string, size int64) error {
	b, ok := m.files[p]
	if !ok {
		return &os.PathError{Op: "truncate", Path: p, Err: os.ErrNotExist}
	}
	if size < int64(len(b)) {
		m.files[p] = b[:size]
	}
	return nil
}
func (m *memFS) Remove(p string) error {
	if _, ok := m.files[p]; !ok {
		return &os.PathError{Op: "remove", Path: p, Err: os.ErrNotExist}
	}
	delete(m.files, p)
	return nil
}

type memFile struct {
	fs   *memFS
	path string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.files[f.path] = append(f.fs.files[f.path], p...)
	return len(p), nil
}
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// FuzzJournalReplay throws arbitrary bytes at the crash-recovery
// reader: whatever is on disk as the meta journal and a job's records
// file, openJournal must neither panic nor error (every corruption
// shape degrades to truncation or skipping), every record it trusts
// must carry the job's derived seed, and recovery must be idempotent —
// a second open of the repaired directory finds nothing left to cut.
func FuzzJournalReplay(f *testing.F) {
	// Seed the corpus with a realistic journal produced by the real
	// writer: one finished job with records, one still queued.
	seedDir := f.TempDir()
	spec := smallSpec()
	spec.Normalize()
	jr, _, err := openJournal(OSFS(), seedDir, 4, testRetry)
	if err != nil {
		f.Fatal(err)
	}
	if err := jr.submit("j1", spec); err != nil {
		f.Fatal(err)
	}
	for _, rec := range specRecords(spec, 3) {
		if err := jr.appendRecord("j1", rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := jr.jobTerminal("j1", StateDone, ""); err != nil {
		f.Fatal(err)
	}
	if err := jr.submit("j2", spec); err != nil {
		f.Fatal(err)
	}
	jr.close(true)
	meta, err := os.ReadFile(filepath.Join(seedDir, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	recs, err := os.ReadFile(filepath.Join(seedDir, "records", "j1.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, recs)
	f.Add(meta[:len(meta)-9], recs[:len(recs)-5]) // torn tails
	f.Add([]byte(`{"type":"submit","id":"j1"}`+"\n"), []byte("garbage\n"))
	f.Add([]byte("\x00\xff\n{}\n"), []byte{})

	f.Fuzz(func(t *testing.T, meta, recs []byte) {
		const dir = "data"
		mfs := &memFS{files: map[string][]byte{
			filepath.Join(dir, "journal.jsonl"):       append([]byte(nil), meta...),
			filepath.Join(dir, "records", "j1.jsonl"): append([]byte(nil), recs...),
		}}
		jr1, rs1, err := openJournal(mfs, dir, 4, testRetry)
		if err != nil {
			t.Fatalf("recovery errored on corrupt input: %v", err)
		}
		jr1.close(false)
		for _, rj := range rs1.jobs {
			seeds := mc.RepSeeds(rj.spec.Seed, rj.spec.Replicates)
			for i, rec := range rj.records {
				if rec.Rep != i || rec.Seed != seeds[i] || rec.Job != rj.spec.Name() {
					t.Fatalf("trusted record %d of %s fails validation: %+v", i, rj.id, rec)
				}
			}
		}
		// Second open: the repaired directory replays identically with
		// nothing further to truncate.
		jr2, rs2, err := openJournal(mfs, dir, 4, testRetry)
		if err != nil {
			t.Fatalf("reopen after recovery errored: %v", err)
		}
		jr2.close(false)
		if rs2.truncated != 0 {
			t.Fatalf("recovery not idempotent: second open truncated %d more bytes", rs2.truncated)
		}
		if len(rs2.jobs) != len(rs1.jobs) || rs2.clean != rs1.clean {
			t.Fatalf("second replay diverged: %d vs %d jobs, clean %v vs %v",
				len(rs2.jobs), len(rs1.jobs), rs2.clean, rs1.clean)
		}
		for i, rj := range rs2.jobs {
			if rj.id != rs1.jobs[i].id || rj.state != rs1.jobs[i].state || len(rj.records) != len(rs1.jobs[i].records) {
				t.Fatalf("job %d diverged across replays", i)
			}
		}
	})
}
