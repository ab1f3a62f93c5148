package mc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestAppendRecordBytesPinned holds the encoder to the bytes records
// files already hold: each want line is json.Marshal(rec), a literal so
// that the fast path cannot drift from it. The edge cases are the ones
// that must leave the fast path (Job bytes that JSON escapes or that are
// not ASCII, a non-zero Value) and the extremes of the integer fields,
// which must not.
func TestAppendRecordBytesPinned(t *testing.T) {
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{}, `{"rep":0,"seed":0,"rounds":0,"success":false}`},
		{Record{Job: "3majority/multinomial/n=1000000/k=16", Rep: 3, Seed: 12345, Rounds: 87, Success: true},
			`{"job":"3majority/multinomial/n=1000000/k=16","rep":3,"seed":12345,"rounds":87,"success":true}`},
		{Record{Job: "a<b>&c", Rep: 1, Seed: 2, Rounds: 3}, `{"job":"a\u003cb\u003e\u0026c","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: `say "hi"\now`, Rep: 1, Seed: 2, Rounds: 3}, `{"job":"say \"hi\"\\now","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: "tab\there\x01", Rep: 1, Seed: 2, Rounds: 3}, `{"job":"tab\there\u0001","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: "grün/Ω", Rep: 1, Seed: 2, Rounds: 3}, `{"job":"grün/Ω","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: "bad\xffutf8", Rep: 1, Seed: 2, Rounds: 3}, `{"job":"bad\ufffdutf8","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: "line\u2028sep", Rep: 1, Seed: 2, Rounds: 3}, `{"job":"line\u2028sep","rep":1,"seed":2,"rounds":3,"success":false}`},
		{Record{Job: "g", Rep: -7, Seed: 0, Rounds: -1}, `{"job":"g","rep":-7,"seed":0,"rounds":-1,"success":false}`},
		{Record{Job: "g", Rep: math.MaxInt64, Seed: math.MaxUint64, Rounds: math.MinInt64, Success: true},
			`{"job":"g","rep":9223372036854775807,"seed":18446744073709551615,"rounds":-9223372036854775808,"success":true}`},
		{Record{Job: "g", Value: 0.5}, `{"job":"g","rep":0,"seed":0,"rounds":0,"success":false,"value":0.5}`},
		{Record{Job: "g", Value: 1e-7}, `{"job":"g","rep":0,"seed":0,"rounds":0,"success":false,"value":1e-7}`},
		{Record{Job: "g", Value: 1e21}, `{"job":"g","rep":0,"seed":0,"rounds":0,"success":false,"value":1e+21}`},
		{Record{Job: "g", Value: math.Copysign(0, -1)}, `{"job":"g","rep":0,"seed":0,"rounds":0,"success":false}`},
	}
	for _, tc := range cases {
		want := tc.want + "\n"
		got, err := AppendRecordLine([]byte("prefix"), tc.rec)
		if err != nil || string(got) != "prefix"+want {
			t.Errorf("AppendRecordLine(%#v) = %q, %v; want %q", tc.rec, got, err, "prefix"+want)
		}
		var buf bytes.Buffer
		if err := AppendRecord(&buf, tc.rec); err != nil || buf.String() != want {
			t.Errorf("AppendRecord(%#v) wrote %q, %v; want %q", tc.rec, buf.String(), err, want)
		}
	}
	if _, err := AppendRecordLine(nil, Record{Value: math.NaN()}); err == nil {
		t.Error("AppendRecordLine encoded a NaN Value, which json.Marshal refuses")
	}
}

// TestAppendRecordZeroAllocs pins the fast path's steady state: a record
// with a plain Job encodes into a reused buffer without allocating.
// AppendRecord's pooled buffer is left to BenchmarkAppendRecord, since
// under the race detector sync.Pool drops buffers at random.
func TestAppendRecordZeroAllocs(t *testing.T) {
	rec := Record{Job: "3majority/multinomial/n=1000000/k=16", Rep: 3, Seed: 12345, Rounds: 87, Success: true}
	var buf []byte
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendRecordLine(buf[:0], rec) }); n != 0 {
		t.Errorf("AppendRecordLine allocates %v times per record, want 0", n)
	}
}

// decodeLines are lines that sit on or next to the canonical shape.
// Record.DecodeLine may accept only those that json.Unmarshal decodes
// identically; the comments name the ones it must decline.
var decodeLines = []string{
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true}`,
	`{"rep":-3,"seed":18446744073709551615,"rounds":-9223372036854775808,"success":false}`,
	`{"job":"","rep":1,"seed":2,"rounds":3,"success":false}`,
	`{"job":"a<b>&c","rep":1,"seed":2,"rounds":3,"success":false}`,                 // json.Marshal escapes these
	`{"job":"g","rep":01,"seed":1,"rounds":2,"success":true}`,                      // leading zero
	`{"job":"g","rep":0,"seed":01,"rounds":2,"success":true}`,                      // leading zero
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true}x`,                      // bytes after the object
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true}}`,                      // bytes after the object
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true} `,                      // valid, not canonical
	`{"job":"g","rep":-0,"seed":1,"rounds":2,"success":true}`,                      // -0 is not canonical
	`{"job":"g","rep":0,"seed":-0,"rounds":2,"success":true}`,                      // a uint64 has no sign
	`{"job":"g","rep":0,"seed":-1,"rounds":2,"success":true}`,                      // a uint64 has no sign
	`{"job":"g","rep":0,"seed":18446744073709551616,"rounds":2,"success":true}`,    // overflow
	`{"job":"g","rep":9223372036854775808,"seed":1,"rounds":2,"success":true}`,     // overflow
	`{"job":"g","rep":0,"seed":1,"rounds":-9223372036854775809,"success":true}`,    // overflow
	`{"job":"g","rep":1.0,"seed":1,"rounds":2,"success":true}`,                     // not an int
	`{"job":"g","rep":1e2,"seed":1,"rounds":2,"success":true}`,                     // not an int
	`{"job":"g\u0041","rep":0,"seed":1,"rounds":2,"success":true}`,                 // an escape
	`{"job":"g\"","rep":0,"seed":1,"rounds":2,"success":true}`,                     // an escape
	"{\"job\":\"g\x01\",\"rep\":0,\"seed\":1,\"rounds\":2,\"success\":true}",       // a control byte
	"{\"job\":\"gr\xc3\xbcn\",\"rep\":0,\"seed\":1,\"rounds\":2,\"success\":true}", // not ASCII
	"{\"job\":\"bad\xff\",\"rep\":0,\"seed\":1,\"rounds\":2,\"success\":true}",     // invalid UTF-8
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true,"value":0.5}`,           // a Value
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":TRUE}`,                       // not a bool
	`{"rep":0,"job":"g","seed":1,"rounds":2,"success":true}`,                       // key order
	`{"JOB":"g","rep":0,"seed":1,"rounds":2,"success":true}`,                       // key case
	`{"job":"g","rep":0,"seed":1,"rounds":2}`,                                      // no success
	`{"job":"g","rep":0,"rep":1,"seed":1,"rounds":2,"success":true}`,               // a repeated key
	`{"job":"g","rep":0,"seed":1,"rounds":2,"success":true`,                        // torn
	`{"job":"g","rep":,"seed":1,"rounds":2,"success":true}`,                        // no digits
	`{"job":g,"rep":0,"seed":1,"rounds":2,"success":true}`,                         // no quotes
	`{"job":"g,"rep":0,"seed":1,"rounds":2,"success":true}`,                        // unterminated
	`{}`, `null`, ``,
}

// checkDecodeLine is the differential check on one line: if the fast
// decoder accepts it, json.Unmarshal must decode it to the same record
// without error, and a declined line must leave the receiver untouched.
func checkDecodeLine(t *testing.T, line []byte) (accepted bool) {
	t.Helper()
	sentinel := Record{Job: "sentinel", Rep: 99}
	fast := sentinel
	if !fast.DecodeLine(line) {
		if fast != sentinel {
			t.Fatalf("DecodeLine declined %q but changed its receiver to %+v", line, fast)
		}
		return false
	}
	var slow Record
	if err := json.Unmarshal(line, &slow); err != nil || slow != fast {
		t.Fatalf("DecodeLine accepted %q as %+v; json.Unmarshal gives %+v, %v", line, fast, slow, err)
	}
	return true
}

func TestRecordDecodeLine(t *testing.T) {
	accepted := 0
	for _, line := range decodeLines {
		if checkDecodeLine(t, []byte(line)) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Errorf("DecodeLine accepted %d of the lines, want the 3 canonical ones", accepted)
	}
}

// TestReadRecordsSkipsWhitespaceLines: ReadRecords skips the lines
// ScanLines and Prefix skip, so a whitespace-only line between two
// records reads as nothing.
func TestReadRecordsSkipsWhitespaceLines(t *testing.T) {
	recs := sampleRecords(2)
	lines := bytes.SplitAfter(writeRecords(t, recs), []byte("\n"))
	data := bytes.Join([][]byte{lines[0], []byte(" \n\t\r\n\n"), lines[1]}, nil)
	got, err := ReadRecords(bytes.NewReader(data))
	if err != nil || len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("ReadRecords = %+v, %v; want the 2 records", got, err)
	}
	if scanned, _ := ScanLines[Record](data); len(scanned) != 2 {
		t.Fatalf("ScanLines read %d records, want 2", len(scanned))
	}
}

// TestReadRecordsAllocatesForItsInput bounds what parsing a short stream
// costs: 16 records, the shape of one job's /records body, allocate a few
// KiB per call, not a line buffer sized for the longest line allowed.
func TestReadRecordsAllocatesForItsInput(t *testing.T) {
	data := writeRecords(t, sampleRecords(16))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if recs, err := ReadRecords(bytes.NewReader(data)); err != nil || len(recs) != 16 {
			t.Fatalf("ReadRecords = %d records, %v; want 16", len(recs), err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 16<<10 {
		t.Errorf("ReadRecords of %d bytes allocated %d bytes per call, want at most 16 KiB", len(data), perCall)
	}
}

// TestReadRecordsLineCap: a record line just under the 1 MiB cap still
// decodes, and one that reaches the cap is an error.
func TestReadRecordsLineCap(t *testing.T) {
	const limit = 1 << 20
	// line returns a record whose line, newline included, is size bytes.
	line := func(size int) (Record, []byte) {
		rec := Record{Rep: 1, Seed: 2, Rounds: 3, Success: true}
		base, err := AppendRecordLine(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Job = strings.Repeat("a", size-len(base)-len(`"job":"",`))
		b, err := AppendRecordLine(nil, rec)
		if err != nil || len(b) != size {
			t.Fatalf("record line of %d bytes (%v), want %d", len(b), err, size)
		}
		return rec, b
	}
	rec, data := line(limit)
	if got, err := ReadRecords(bytes.NewReader(data)); err != nil || len(got) != 1 || got[0] != rec {
		t.Fatalf("a %d-byte line: %d records, %v; want the record back", limit-1, len(got), err)
	}
	_, data = line(limit + 1)
	if _, err := ReadRecords(bytes.NewReader(data)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: error %v, want bufio.ErrTooLong", limit, err)
	}
}

// FuzzRecordCodec holds the codec to encoding/json: for any record the
// encoder writes json.Marshal's bytes, those bytes decode back to the
// record through ScanLines, and any line the fast decoder accepts
// json.Unmarshals to the same record without error.
func FuzzRecordCodec(f *testing.F) {
	f.Add("grid/a", 3, uint64(12345), 87, true, 0.0, []byte(decodeLines[0]))
	f.Add("", -1, uint64(math.MaxUint64), math.MinInt64, false, 0.5, []byte(decodeLines[4]))
	f.Add("a<b>&c\"\\\x01", 0, uint64(0), 0, false, 1e21, []byte(decodeLines[6]))
	f.Add("bad\xffutf8\u2028", math.MaxInt64, uint64(1), 1, true, math.Copysign(0, -1), []byte(decodeLines[9]))
	for _, line := range decodeLines {
		f.Add("g", 0, uint64(1), 2, true, 0.0, []byte(line))
	}
	f.Fuzz(func(t *testing.T, job string, rep int, seed uint64, rounds int, success bool, value float64, line []byte) {
		rec := Record{Job: job, Rep: rep, Seed: seed, Rounds: rounds, Success: success, Value: value}
		got, err := AppendRecordLine(nil, rec)
		want, wantErr := json.Marshal(rec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#v: AppendRecordLine error %v, json.Marshal error %v", rec, err, wantErr)
		}
		if err != nil {
			return
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("%#v: AppendRecordLine wrote %q, json.Marshal %q", rec, got, want)
		}
		checkDecodeLine(t, got[:len(got)-1])
		checkDecodeLine(t, line)
		if !utf8.ValidString(job) {
			return // json.Marshal wrote U+FFFD for the invalid bytes
		}
		back, ends := ScanLines[Record](got)
		if len(back) != 1 || back[0] != rec || ends[0] != int64(len(got)) {
			t.Fatalf("%#v: %q scans back as %+v", rec, got, back)
		}
	})
}

// BenchmarkAppendRecord encodes one sweep-shaped record, the fast path
// every records file, sweep -out and /records stream takes.
func BenchmarkAppendRecord(b *testing.B) {
	rec := Record{Job: "3majority/multinomial/n=1000000/k=16/bias=1000/seed=42", Rep: 7, Seed: 0x9e3779b97f4a7c15, Rounds: 87, Success: true}
	b.ReportAllocs()
	for b.Loop() {
		if err := AppendRecord(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefix proves a records file of 500 jobs × 16 replicates,
// the records a daemon restart replays for a 500-job journal.
func BenchmarkPrefix(b *testing.B) {
	jobs := make([]Job, 500)
	var data bytes.Buffer
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("3majority/multinomial/n=1000000/k=16/job=%d", i), Seed: uint64(i + 1), Replicates: 16}
		for rep, seed := range RepSeeds(jobs[i].Seed, 16) {
			if err := AppendRecord(&data, Record{Job: jobs[i].Name, Rep: rep, Seed: seed, Rounds: 80 + rep, Success: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(data.Len()))
	b.ReportAllocs()
	for b.Loop() {
		done, valid, err := Prefix(data.Bytes(), jobs)
		if err != nil || valid != int64(data.Len()) || len(done[499]) != 16 {
			b.Fatalf("prefix: valid %d of %d, err %v", valid, data.Len(), err)
		}
	}
}
