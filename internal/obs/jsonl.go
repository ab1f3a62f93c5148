// JSONL trace serialization. A trace file is a stream of one-object
// lines, each tagged with a "type" field:
//
//	{"type":"run", "engine":..., "rule":..., "n":..., "k":..., "seed":..., "job":..., "rep":...}
//	{"type":"round", "round":1, "wall_ns":..., "ns_per_agent":..., "c_max":..., "c_second":..., "bias":..., ...}
//	...
//	{"type":"summary", "rounds":..., "retained":..., "dropped":..., "wall_ns":..., "ns_per_agent":..., "heap_max":...}
//
// Round lines carry RoundStats, so a parsed trace feeds Segments and
// PhaseSummary exactly as the live Recorder's rounds do. Multiple runs
// may be concatenated in one file (cmd/sweep and pluralityd's
// per-replicate traces do exactly that); ReadTraces splits them back
// apart. The reader is tolerant by construction — torn tails, corrupt
// lines and unknown record types are counted and skipped, never fatal —
// because trace files are written by processes that may crash mid-line.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Header identifies the run a trace belongs to.
type Header struct {
	Engine string `json:"engine,omitempty"`
	Rule   string `json:"rule,omitempty"`
	N      int64  `json:"n"`
	K      int    `json:"k"`
	Seed   uint64 `json:"seed,omitempty"`
	// Job/Rep tie a trace back to an mc job: the job name and the
	// replicate index within it.
	Job string `json:"job,omitempty"`
	Rep int    `json:"rep,omitempty"`
}

// Summary closes a run's trace with its aggregate telemetry.
type Summary struct {
	// Rounds is the total observed; Retained is how many round lines
	// precede the summary (the ring bound); Dropped = Rounds - Retained.
	Rounds     int     `json:"rounds"`
	Retained   int     `json:"retained"`
	Dropped    int     `json:"dropped,omitempty"`
	WallNs     int64   `json:"wall_ns"`
	NsPerAgent float64 `json:"ns_per_agent"`
	HeapMax    uint64  `json:"heap_max,omitempty"`
}

// Line wrappers: the embedded struct's fields are flattened alongside
// the type tag by encoding/json.
type (
	headerLine struct {
		Type string `json:"type"`
		Header
	}
	roundLine struct {
		Type string `json:"type"`
		RoundStats
	}
	summaryLine struct {
		Type string `json:"type"`
		Summary
	}
)

// Summarize builds the closing summary for the recorder's current
// contents.
func (r *Recorder) Summarize() Summary {
	s := Summary{
		Rounds:   r.total,
		Retained: r.Len(),
		Dropped:  r.Dropped(),
		WallNs:   r.wallNs,
		HeapMax:  r.heapMax,
	}
	if r.total > 0 && r.n > 0 {
		s.NsPerAgent = float64(r.wallNs) / float64(r.total) / float64(r.n)
	}
	return s
}

// WriteTrace serializes the recorder as one JSONL run: header, the
// retained rounds oldest-first, then a summary. The recorder is not
// reset; callers streaming many runs into one file call WriteTrace once
// per run.
func (r *Recorder) WriteTrace(w io.Writer, h Header) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine{Type: "run", Header: h}); err != nil {
		return err
	}
	for i, n := 0, r.Len(); i < n; i++ {
		if err := enc.Encode(roundLine{Type: "round", RoundStats: r.At(i)}); err != nil {
			return err
		}
	}
	if err := enc.Encode(summaryLine{Type: "summary", Summary: r.Summarize()}); err != nil {
		return err
	}
	return bw.Flush()
}

// Trace is one parsed run from a JSONL trace stream.
type Trace struct {
	Header  Header
	Rounds  []RoundStats
	Summary *Summary
}

// maxTraceLine bounds a single input line; anything longer is treated
// as corrupt (a well-formed round line is a few hundred bytes).
const maxTraceLine = 1 << 20

// ReadTraces parses a JSONL trace stream into its runs. It never
// panics and never fails on malformed content: corrupt or torn lines,
// unknown record types, and an over-long line (which also terminates
// the scan, since framing is lost) are counted in skipped and dropped.
// Round/summary lines arriving before any "run" header open an
// implicit run with a zero Header. The returned error is only ever an
// underlying read error.
func ReadTraces(r io.Reader) (traces []Trace, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var cur *Trace
	open := func() *Trace {
		if cur == nil {
			traces = append(traces, Trace{})
			cur = &traces[len(traces)-1]
		}
		return cur
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &probe) != nil {
			skipped++
			continue
		}
		switch probe.Type {
		case "run":
			var h headerLine
			if json.Unmarshal(line, &h) != nil {
				skipped++
				continue
			}
			traces = append(traces, Trace{Header: h.Header})
			cur = &traces[len(traces)-1]
		case "round":
			var rl roundLine
			if json.Unmarshal(line, &rl) != nil {
				skipped++
				continue
			}
			t := open()
			t.Rounds = append(t.Rounds, rl.RoundStats)
		case "summary":
			var sl summaryLine
			if json.Unmarshal(line, &sl) != nil {
				skipped++
				continue
			}
			t := open()
			s := sl.Summary
			t.Summary = &s
			cur = nil // a summary closes the run
		default:
			skipped++
		}
	}
	if serr := sc.Err(); serr != nil {
		if errors.Is(serr, bufio.ErrTooLong) {
			return traces, skipped + 1, nil
		}
		return traces, skipped, serr
	}
	return traces, skipped, nil
}
