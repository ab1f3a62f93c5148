package mc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeRecords renders records as the JSONL AppendRecord produces.
func writeRecords(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := AppendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Job: "grid/a", Rep: i, Seed: uint64(1000 + i), Rounds: 10 + i, Success: i%2 == 0}
	}
	return recs
}

func TestScanLinesCleanFile(t *testing.T) {
	recs := sampleRecords(4)
	data := writeRecords(t, recs)
	got, ends := ScanLines[Record](data)
	if len(got) != 4 || ends[3] != int64(len(data)) {
		t.Fatalf("clean file: %d records, ends %v, want 4 ending at %d", len(got), ends, len(data))
	}
	for i, rec := range got {
		if rec != recs[i] {
			t.Fatalf("record %d round-tripped to %+v", i, rec)
		}
	}
	// Each end offset is a line boundary: the byte before it is '\n'.
	for i, end := range ends {
		if data[end-1] != '\n' {
			t.Fatalf("ends[%d]=%d is not a line boundary", i, end)
		}
	}
}

// TestScanLinesTruncationEveryOffset is the torn-write exhaustiveness
// proof: truncating the file at *every* byte offset of the last record
// must yield exactly the first m-1 records, the last of them ending where
// record m-1's line does, so a resumed run re-executes only the
// replicate whose write was torn.
func TestScanLinesTruncationEveryOffset(t *testing.T) {
	recs := sampleRecords(5)
	data := writeRecords(t, recs)
	_, fullEnds := ScanLines[Record](data)
	lastStart := fullEnds[len(fullEnds)-2] // byte where the last record's line begins
	for cut := lastStart; cut < int64(len(data)); cut++ {
		got, ends := ScanLines[Record](data[:cut])
		if len(got) != len(recs)-1 {
			t.Fatalf("cut at byte %d: %d records, want %d", cut, len(got), len(recs)-1)
		}
		if ends[len(ends)-1] != lastStart {
			t.Fatalf("cut at byte %d: valid prefix %d, want %d", cut, ends[len(ends)-1], lastStart)
		}
	}
}

func TestScanLinesStopsAtGarbage(t *testing.T) {
	data := writeRecords(t, sampleRecords(3))
	valid := int64(len(data))
	data = append(data, []byte("{\"rep\": 3, \"seed\"")...) // torn mid-key
	got, ends := ScanLines[Record](data)
	if len(got) != 3 || ends[2] != valid {
		t.Fatalf("torn tail: %d records, ends %v, want 3 ending at %d", len(got), ends, valid)
	}
	// A complete but malformed line stops the scan too.
	data = append(writeRecords(t, sampleRecords(2)), []byte("not json\n")...)
	data = append(data, writeRecords(t, sampleRecords(1))...)
	if got, _ := ScanLines[Record](data); len(got) != 2 {
		t.Fatalf("garbage line: scanned %d records, want 2", len(got))
	}
}

// prefixJobs is a two-job run, a:3 replicates then b:2, and its
// uninterrupted output: the records Pool.Run would sink, line by line.
func prefixJobs(t testing.TB) ([]Job, [][]byte) {
	jobs := []Job{{Name: "a", Seed: 1, Replicates: 3}, {Name: "b", Seed: 2, Replicates: 2}}
	var lines [][]byte
	for _, job := range jobs {
		for rep, seed := range RepSeeds(job.Seed, job.Replicates) {
			b, err := json.Marshal(Record{Job: job.Name, Rep: rep, Seed: seed, Rounds: 10 + rep, Success: rep%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, append(b, '\n'))
		}
	}
	return jobs, lines
}

// TestPrefix pins the prefix proof shared by sweep -resume and journal
// replay: the longest prefix of an uninterrupted run, cut before a torn
// or unparsable tail without error, and an error exactly when a
// well-formed record follows the prefix.
func TestPrefix(t *testing.T) {
	jobs, l := prefixJobs(t)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	full := cat(l...)
	cases := []struct {
		name  string
		data  []byte
		keep  []int  // records proven per job
		valid int    // lines of l in the prefix
		err   string // "" for no error
	}{
		{"clean", full, []int{3, 2}, 5, ""},
		{"empty", nil, []int{0, 0}, 0, ""},
		{"partial job", cat(l[:2]...), []int{2, 0}, 2, ""},
		{"torn tail", cat(cat(l[:4]...), l[4][:9]), []int{3, 1}, 4, ""},
		{"unparsable tail", cat(cat(l[:2]...), []byte("garbage\n\n")), []int{2, 0}, 2, ""},
		{"interior corruption", cat(l[0], []byte("garbage\n"), l[1]), []int{1, 0}, 1, "corrupt line"},
		{"repeated line", cat(l[0], l[0], l[1]), []int{1, 0}, 1, "out of order"},
		{"swapped lines", cat(l[0], l[2], l[1]), []int{1, 0}, 1, "out of order"},
		{"after a partial job", cat(l[0], l[1], l[3]), []int{2, 0}, 2, "out of order"},
		{"past the last job", cat(full, l[4]), []int{3, 2}, 5, "follows the last replicate"},
		{"foreign job", cat(l[0], bytes.Replace(l[1], []byte(`"job":"a"`), []byte(`"job":"c"`), 1)), []int{1, 0}, 1, "not in this grid"},
	}
	for _, tc := range cases {
		done, valid, err := Prefix(tc.data, jobs)
		if want := int64(len(cat(l[:tc.valid]...))); valid != want {
			t.Errorf("%s: valid %d, want %d", tc.name, valid, want)
		}
		for j := range jobs {
			if len(done[j]) != tc.keep[j] {
				t.Errorf("%s: job %s kept %d records, want %d", tc.name, jobs[j].Name, len(done[j]), tc.keep[j])
			}
		}
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}

// TestResumeAfterTornWriteReExecutesOnlyMissing wires a torn file back
// through RunOpts.Done and checks the run recomputes exactly the
// replicates that were lost, leaving the final stream byte-identical to
// an uninterrupted run.
func TestResumeAfterTornWriteReExecutesOnlyMissing(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	job := Job{Name: "grid/a", Seed: 9, Replicates: 6,
		New: func(seed uint64) Run {
			return func() Record { return Record{Rounds: int(seed % 97), Success: seed%2 == 0} }
		}}
	var want bytes.Buffer
	if _, err := pool.Run(t.Context(), job, RunOpts{Sink: func(r Record) error { return AppendRecord(&want, r) }}); err != nil {
		t.Fatal(err)
	}

	// Tear the file inside record 4: records 0..3 survive.
	_, ends := ScanLines[Record](want.Bytes())
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	torn := want.Bytes()[:ends[4]-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	done, valid, err := Prefix(torn, []Job{job})
	if err != nil || valid != ends[3] {
		t.Fatalf("prefix: valid=%d err=%v, want %d", valid, err, ends[3])
	}
	if err := os.Truncate(path, valid); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	_, err = pool.Run(t.Context(), job, RunOpts{
		Done: done[0],
		Sink: func(r Record) error { ran++; return AppendRecord(f, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("resume re-executed %d replicates, want 2 (reps 4 and 5)", ran)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("resumed file differs from uninterrupted run:\n got %q\nwant %q", got, want.Bytes())
	}
}

func TestScanLinesSkipsBlankLines(t *testing.T) {
	data := []byte(fmt.Sprintf("\n%s\n \n%s\n",
		`{"job":"g","rep":0,"seed":1,"rounds":2}`, `{"job":"g","rep":1,"seed":2,"rounds":3}`))
	recs, ends := ScanLines[Record](data)
	if len(recs) != 2 || ends[1] != int64(len(data)) {
		t.Fatalf("blank lines: %d records, ends %v of %d bytes", len(recs), ends, len(data))
	}
}

// FuzzPrefix holds the prefix proof to its contract on arbitrary bytes:
// it never panics, every record it returns re-checks against its job,
// the prefix it finds is a fixed point (Prefix of data[:valid] proves
// the same records, all of it, without error), and a nil error means no
// complete line past the prefix is a well-formed record.
func FuzzPrefix(f *testing.F) {
	jobs, l := prefixJobs(f)
	full := bytes.Join(l, nil)
	f.Add(full)
	f.Add(full[:len(full)-7])
	f.Add(bytes.Join([][]byte{l[0], l[0], l[1]}, nil))
	f.Add(bytes.Join([][]byte{l[0], []byte("garbage\n"), l[1]}, nil))
	f.Add([]byte("\n \n{}\nnull\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		done, valid, err := Prefix(data, jobs)
		if len(done) != len(jobs) || valid < 0 || valid > int64(len(data)) || valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("prefix shape: %d jobs, valid %d of %d bytes", len(done), valid, len(data))
		}
		for j, recs := range done {
			if j > 0 && len(recs) > 0 && len(done[j-1]) != jobs[j-1].Replicates {
				t.Fatalf("job %d has records after the partial job %d", j, j-1)
			}
			seeds := RepSeeds(jobs[j].Seed, jobs[j].Replicates)
			for rep, rec := range recs {
				if rep >= len(seeds) || rec.Job != jobs[j].Name || rec.Rep != rep || rec.Seed != seeds[rep] {
					t.Fatalf("job %d record %d fails its check: %+v", j, rep, rec)
				}
			}
		}
		again, whole, err2 := Prefix(data[:valid], jobs)
		if err2 != nil || whole != valid || !reflect.DeepEqual(again, done) {
			t.Fatalf("prefix is not a fixed point: valid %d→%d, err %v", valid, whole, err2)
		}
		if err != nil {
			return
		}
		lines := bytes.Split(data[valid:], []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // the last piece has no newline
			var rec Record
			if json.Unmarshal(line, &rec) == nil && rec != (Record{}) {
				t.Fatalf("nil error, but a well-formed record %q follows the prefix", line)
			}
		}
	})
}
