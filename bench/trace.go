package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/colorcfg"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public functions. Spans of one pass share a
// trace id; parent links give the hierarchy bench → mc → core (engine
// work rides on core spans as step count/ns attrs), bench → topo, and
// bench → service op → request, with journal file operations under the
// pass.
type span struct {
	Trace  uint64         `json:"trace"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Layer  string         `json:"layer"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// maxSpans bounds the spans a run keeps in memory; later ones are counted
// but dropped. The per-layer metrics come from counters, not from spans.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends. begin and end are safe
// for concurrent use.
type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	root *active // the current pass's root span, set by the harness

	mu      sync.Mutex
	spans   []span
	dropped int
}

// active is a span that has begun and not yet ended.
type active struct{ s span }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin starts a span under parent (nil: a new trace).
func (t *tracer) begin(layer, name string, parent *active) *active {
	id := t.ids.Add(1)
	a := &active{span{Trace: id, ID: id, Layer: layer, Name: name}}
	if parent != nil {
		a.s.Trace, a.s.Parent = parent.s.Trace, parent.s.ID
	}
	a.s.Start = t.now()
	return a
}

// end closes a span and keeps it.
func (t *tracer) end(a *active, attrs map[string]any) {
	a.s.End = t.now()
	a.s.Attrs = attrs
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, a.s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write stores the spans as JSONL in dir/name and logs each layer's self
// time.
func (t *tracer) write(dir, name string, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := selfTimes(t.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(log, "plbench: %d spans in %s (%d dropped); self time by layer:", len(t.spans), path, t.dropped)
	for _, l := range layers {
		fmt.Fprintf(log, " %s=%.3fs", l, float64(self[l])/1e9)
	}
	fmt.Fprintln(log)
	return nil
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its children cover. Children may overlap (replicates run on
// several workers), so the covered part is the union of their intervals.
func selfTimes(spans []span) map[string]int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// stepObserver is the bench-side obs.Observer handed to core.Run: it sums
// the engine's Step wall time and consumes no rng.
type stepObserver struct{ steps, ns int64 }

func (s *stepObserver) ObserveRound(_ int, _ int64, wallNs int64, _ colorcfg.Config) {
	s.steps++
	s.ns += wallNs
}
