package mc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// AppendRecord writes one record as a single JSON line. Records written
// through a Pool.Run sink arrive in replicate order, so two runs with the
// same (seed, grid) produce byte-identical files regardless of workers.
func AppendRecord(w io.Writer, rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadRecords parses a JSONL record stream. Blank lines are skipped; a
// malformed line is an error. Callers that need to survive a crash
// mid-write (a torn trailing line) use Prefix instead, which recovers
// the valid prefix.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("mc: bad record on line %d: %v", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanLines parses the longest run of JSON lines at the head of data as
// values of type T. A line counts only when it is complete
// (newline-terminated) and unmarshals; whitespace-only lines are skipped
// but stay part of the run. Scanning stops at the first line that fails
// either test — the shape a crash mid-write leaves behind — without
// error. ends[i] is the byte offset just past vals[i]'s line, so a caller
// can truncate a damaged file to any value boundary.
func ScanLines[T any](data []byte) (vals []T, ends []int64) {
	var off int64
	for {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return vals, ends // no line left, or a torn trailing write
		}
		line := data[off : off+int64(nl)]
		off += int64(nl) + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var v T
		if json.Unmarshal(line, &v) != nil {
			return vals, ends
		}
		vals = append(vals, v)
		ends = append(ends, off)
	}
}

// Prefix returns the longest prefix of data that an uninterrupted
// Pool.Run of jobs, in order, writes through its sink: job i's records
// carry jobs[i].Name, replicate indexes 0, 1, … and the seeds
// RepSeeds(jobs[i].Seed, jobs[i].Replicates). done[i] is job i's part of
// the prefix, ready for RunOpts.Done, and valid is the prefix's byte
// length, the offset to truncate the file to before appending.
//
// err is non-nil exactly when a well-formed record follows the prefix: a
// job of another grid, a repeated or reordered replicate, records after a
// partial job, or interior corruption. Appending to such a file would
// bury that record mid-stream. A torn or unparsable tail alone is not an
// error. done and valid are returned with the error too.
func Prefix(data []byte, jobs []Job) (done [][]Record, valid int64, err error) {
	recs, ends := ScanLines[Record](data)
	done = make([][]Record, len(jobs))
	j := 0 // the job the next record belongs to
	var seeds []uint64
	for i, rec := range recs {
		for j < len(jobs) && len(done[j]) >= jobs[j].Replicates {
			j, seeds = j+1, nil
		}
		if j == len(jobs) {
			break
		}
		if seeds == nil {
			seeds = RepSeeds(jobs[j].Seed, jobs[j].Replicates)
		}
		rep := len(done[j])
		if rec.Job != jobs[j].Name || rec.Rep != rep || rec.Seed != seeds[rep] {
			break
		}
		done[j] = append(done[j], rec)
		valid = ends[i]
	}
	stray := int64(-1) // the first non-blank line past the prefix
	for off := valid; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return done, valid, nil
		}
		line := data[off : off+int64(nl)]
		var rec Record
		switch {
		case len(bytes.TrimSpace(line)) == 0:
		case json.Unmarshal(line, &rec) == nil && rec != (Record{}):
			if stray >= 0 {
				return done, valid, fmt.Errorf("mc: corrupt line at byte %d is followed by a well-formed record at byte %d", stray, off)
			}
			return done, valid, misfit(rec, off, jobs, done)
		case stray < 0:
			stray = off
		}
		off += int64(nl) + 1
	}
}

// misfit describes a well-formed record at byte off that does not
// continue the prefix done of jobs.
func misfit(rec Record, off int64, jobs []Job, done [][]Record) error {
	got := fmt.Sprintf("mc: record at byte %d (job %q, rep %d, seed %d)", off, rec.Job, rec.Rep, rec.Seed)
	if !slices.ContainsFunc(jobs, func(job Job) bool { return job.Name == rec.Job }) {
		return fmt.Errorf("%s is of a job that is not in this grid", got)
	}
	for j, job := range jobs {
		if rep := len(done[j]); rep < job.Replicates {
			return fmt.Errorf("%s is out of order: an uninterrupted run writes job %q, rep %d, seed %d there",
				got, job.Name, rep, RepSeeds(job.Seed, job.Replicates)[rep])
		}
	}
	return fmt.Errorf("%s follows the last replicate of the last job", got)
}
