package mc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// lineBufs holds the buffers AppendRecord encodes into, so the steady
// state allocates nothing.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendRecord writes one record as a single JSON line: the bytes of
// AppendRecordLine, encoded into a reused buffer. Records written
// through a Pool.Run sink arrive in replicate order, so two runs with the
// same (seed, grid) produce byte-identical files regardless of workers.
func AppendRecord(w io.Writer, rec Record) error {
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	b, err := AppendRecordLine((*bp)[:0], rec)
	*bp = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendRecordLine appends rec's JSONL line, json.Marshal(rec) and a
// newline, to dst. It writes the line with strconv appends when Job
// needs no JSON escaping (every byte printable ASCII other than `"`,
// `\`, `<`, `>` and `&`) and Value is zero; any other record goes
// through json.Marshal, so every record gets the same bytes either way.
// On error dst is returned unchanged.
func AppendRecordLine(dst []byte, rec Record) ([]byte, error) {
	if rec.Value != 0 || !plainJob(rec.Job) {
		b, err := json.Marshal(rec)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, '{')
	if rec.Job != "" {
		dst = append(dst, `"job":"`...)
		dst = append(dst, rec.Job...)
		dst = append(dst, `",`...)
	}
	dst = append(dst, `"rep":`...)
	dst = strconv.AppendInt(dst, int64(rec.Rep), 10)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, rec.Seed, 10)
	dst = append(dst, `,"rounds":`...)
	dst = strconv.AppendInt(dst, int64(rec.Rounds), 10)
	dst = append(dst, `,"success":`...)
	dst = strconv.AppendBool(dst, rec.Success)
	return append(dst, "}\n"...), nil
}

// plain[c] reports whether json.Marshal writes byte c of a string as it
// stands: c is printable ASCII and not `"`, `\` or one of the HTML
// characters `<`, `>` and `&` that it escapes.
var plain = func() (t [256]bool) {
	for c := byte(0x20); c <= 0x7e; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// plainJob reports whether json.Marshal writes s verbatim between its
// quotes.
func plainJob(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// LineDecoder is a JSONL line type's own decoder for the canonical lines
// its encoder writes, which ScanLines, Prefix and ReadRecords try before
// encoding/json. DecodeLine reports whether it decoded line into the
// receiver. It may accept only a line that json.Unmarshal decodes, into
// a zero value, to the same value without error; on any other line it
// returns false, leaves the receiver unchanged, and the line goes to
// json.Unmarshal. So a LineDecoder never changes which lines are
// accepted or what they decode to, only how fast.
type LineDecoder interface {
	DecodeLine(line []byte) bool
}

// DecodeLine decodes the line AppendRecordLine writes for a record with
// a plain Job and a zero Value, without its newline:
//
//	{"job":"J","rep":R,"seed":S,"rounds":N,"success":B}
//
// with the "job" member absent when J is empty, R and N canonical
// decimal ints (no leading zero, no "-0"), S a canonical decimal uint64
// and B true or false. Anything else — a record with a Value, a Job
// with escapes or with bytes AppendRecordLine would escape, another key
// order, spaces, bytes after the closing brace — returns false and is
// left to json.Unmarshal.
func (r *Record) DecodeLine(line []byte) bool {
	var rec Record
	b, ok := bytes.CutPrefix(line, []byte(`{"job":`))
	if ok {
		if rec.Job, b, ok = CutString(b); !ok {
			return false
		}
		b, ok = bytes.CutPrefix(b, []byte(`,"rep":`))
	} else {
		b, ok = bytes.CutPrefix(line, []byte(`{"rep":`))
	}
	if !ok {
		return false
	}
	if rec.Rep, b, ok = cutInt(b); !ok {
		return false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"seed":`)); !ok {
		return false
	}
	if rec.Seed, b, ok = cutUint(b); !ok {
		return false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"rounds":`)); !ok {
		return false
	}
	if rec.Rounds, b, ok = cutInt(b); !ok {
		return false
	}
	switch string(b) {
	case `,"success":true}`:
		rec.Success = true
	case `,"success":false}`:
	default:
		return false
	}
	*r = rec
	return true
}

// CutString cuts a JSON string literal from the head of b and returns
// its value and the rest of b, when the literal is one json.Marshal
// writes for a string it leaves as it stands. ok is false unless b
// starts with a quote, a closing quote follows, and every byte between
// them is printable ASCII other than `\`, `<`, `>` and `&`; json.Unmarshal
// decodes such a literal to its bytes. A LineDecoder builds on it.
func CutString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	for i := 1; i < len(b); i++ {
		if c := b[i]; c == '"' {
			return string(b[1:i]), b[i+1:], true
		} else if !plain[c] {
			return "", b, false
		}
	}
	return "", b, false
}

// cutUint cuts a canonical decimal uint64 from the head of b: 0, or a
// nonzero digit and more digits, with no overflow.
func cutUint(b []byte) (uint64, []byte, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, b, false
		}
		v = v*10 + d
	}
	if i == 0 || b[0] == '0' && i > 1 {
		return 0, b, false
	}
	return v, b[i:], true
}

// cutInt cuts a canonical decimal int from the head of b: cutUint's
// form with an optional minus sign, never "-0", within the int range.
func cutInt(b []byte) (int, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	digits := b
	if neg {
		digits = b[1:]
	}
	u, rest, ok := cutUint(digits)
	switch {
	case !ok, neg && u == 0, !neg && u > math.MaxInt, neg && u-1 > math.MaxInt:
		return 0, b, false
	case neg:
		return int(-u), rest, true
	}
	return int(u), rest, true
}

// decodeLine decodes one JSONL line into *v, through T's LineDecoder
// when it has one and that accepts the line, else through json.Unmarshal.
func decodeLine[T any](line []byte, v *T) error {
	if d, ok := any(v).(LineDecoder); ok && d.DecodeLine(line) {
		return nil
	}
	return json.Unmarshal(line, v)
}

// ReadRecords parses a JSONL record stream. Whitespace-only lines are
// skipped, as ScanLines skips them; a malformed line is an error.
// Callers that need to survive a crash mid-write (a torn trailing line)
// use Prefix instead, which recovers the valid prefix. Lines decode as
// ScanLines decodes them: Record's LineDecoder first, then
// json.Unmarshal.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	// The buffer starts at bufio's 4 KiB and doubles only as far as the
	// longest line needs, up to the 1 MiB line cap: a short stream, such
	// as one job's /records body, costs one small buffer.
	sc.Buffer(nil, 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		out = append(out, Record{})
		if err := decodeLine(raw, &out[len(out)-1]); err != nil {
			return nil, fmt.Errorf("mc: bad record on line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanLines parses the longest run of JSON lines at the head of data as
// values of type T. A line counts only when it is complete
// (newline-terminated) and decodes; whitespace-only lines are skipped
// but stay part of the run. Scanning stops at the first line that fails
// either test — the shape a crash mid-write leaves behind — without
// error. ends[i] is the byte offset just past vals[i]'s line, so a caller
// can truncate a damaged file to any value boundary.
//
// When *T is a LineDecoder, each line goes to DecodeLine first and to
// json.Unmarshal only when DecodeLine declines it, so the fast path
// accepts the same lines, with the same values, as encoding/json.
func ScanLines[T any](data []byte) (vals []T, ends []int64) {
	lines := bytes.Count(data, []byte{'\n'})
	vals, ends = make([]T, 0, lines), make([]int64, 0, lines)
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
		var zero T
		vals = append(vals, zero)
		if decodeLine(line, &vals[len(vals)-1]) != nil {
			return vals[:len(vals)-1], ends
		}
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
	j, first := 0, 0 // the job the next record belongs to, and its first record
	var seeds []uint64
	for i, rec := range recs {
		for j < len(jobs) && len(done[j]) >= jobs[j].Replicates {
			j, first, seeds = j+1, i, nil
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
		done[j] = recs[first : i+1 : i+1] // capped: an append copies
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
		case decodeLine(line, &rec) == nil && rec != (Record{}):
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
