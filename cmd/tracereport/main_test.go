package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/obs"
)

// writeTrace materializes nRuns synthetic trace runs into one JSONL
// file, driving a real obs.Recorder so the bytes are exactly what the
// producers write.
func writeTrace(t *testing.T, path string, nRuns, rounds int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for run := 0; run < nRuns; run++ {
		rec := &obs.Recorder{MemEvery: 2}
		cfg := colorcfg.Config{600, 300, 100}
		for r := 1; r <= rounds; r++ {
			cfg[0] += 10
			cfg[1] -= 10
			rec.ObserveRound(r, 1000, int64(1000*(r+1)), cfg)
		}
		h := obs.Header{Engine: "sampled", Rule: "3-majority", N: 1000, K: 3,
			Seed: uint64(100 + run), Job: "cell/a", Rep: run}
		if err := rec.WriteTrace(f, h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReportSingleRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.jsonl")
	writeTrace(t, path, 1, 25)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, 5); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"job=cell/a", "engine=sampled", "rule=3-majority", "n=1000 k=3",
		"rounds: 25 observed, 25 retained, 0 dropped",
		"speed:  ns/agent min=",
		"memory: heap high-water",
		"drift:",
		// c_max grows by 10 a round from 610 and reaches 2n/3 in round 7.
		"phase segmentation (Lemmas 3/4/5):\ngrowth     rounds 1..6 (6)  c_max 610 → 660",
		"decay      rounds 7..25 (19)  c_max 670 → 850",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The drift table samples 5 rows and always includes both endpoints.
	if rows := strings.Count(out, "\n        "); rows != 5 {
		t.Errorf("drift table has %d rows, want 5:\n%s", rows, out)
	}
	if strings.Contains(out, "aggregate") {
		t.Errorf("single run should not print an aggregate:\n%s", out)
	}
}

func TestReportMultiRunAggregate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.jsonl")
	writeTrace(t, path, 3, 12)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if got := strings.Count(out, "run:    "); got != 3 {
		t.Fatalf("got %d run profiles, want 3:\n%s", got, out)
	}
	if strings.Contains(out, "drift:") {
		t.Errorf("-drift 0 still printed a drift table:\n%s", out)
	}
	if !strings.Contains(out, "aggregate: 3 runs") {
		t.Errorf("missing aggregate:\n%s", out)
	}
	if !strings.Contains(out, "rounds:    min=12 p50=12 mean=12.0 max=12") {
		t.Errorf("aggregate rounds roll-up wrong:\n%s", out)
	}
}

func TestReportTolerantInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.jsonl")
	good := filepath.Join(dir, "good.jsonl")
	writeTrace(t, good, 1, 4)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the summary line off and splice in garbage: the report must
	// still render, flag the torn run, and count the skipped line.
	cut := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	torn := append(append([]byte{}, data[:cut+1]...), []byte("not json\n")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, 3); err != nil {
		t.Fatalf("run on torn input: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "no summary line") {
		t.Errorf("torn run not flagged:\n%s", out)
	}
	if !strings.Contains(out, "1 corrupt/unknown lines skipped") {
		t.Errorf("skipped count not reported:\n%s", out)
	}

	// Empty input is reported, not an error.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{empty}, 3); err != nil {
		t.Fatalf("run on empty input: %v", err)
	}
	if !strings.Contains(buf.String(), "no trace runs") {
		t.Errorf("empty input not reported:\n%s", buf.String())
	}

	// A missing file is a real error.
	if err := run(&buf, []string{filepath.Join(dir, "nope.jsonl")}, 3); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSampleIdx(t *testing.T) {
	if got := sampleIdx(3, 10); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("k>=n: %v", got)
	}
	got := sampleIdx(100, 7)
	if len(got) != 7 || got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("endpoints not included: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("indices not strictly increasing: %v", got)
		}
	}
}
