// Command plbench is the repository's end-to-end benchmark. It runs three
// fixed-work workloads that stress different layers of the simulator:
//
//	clique-grid    Monte Carlo grid of count-based clique engines on an
//	               mc.Pool, records encoded as JSONL (the cmd/sweep path)
//	graph-grid     agent-level engines, one cell per graph-engine dispatch
//	               row plus CliqueSampled
//	daemon-submit  closed loop of two HTTP clients against the pluralityd
//	               service with a disk-backed journal
//
// One run measures one workload for -seconds, repeating the workload's
// fixed pass on identical inputs derived from -seed, checks every output,
// and prints one "workload metric value unit" line per metric followed by
// a final JSON line {"correct","attempted","failed","metrics"}. With
// -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced passes, records spans around the calls
// into each layer, and reports the per-layer metrics instead.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	plbench -workload clique-grid -seed 1 -seconds 20 -trace 0
//	plbench -seed 1 -json runs.json          # every workload, each in a child process
//	plbench compare P1.json ... -- C1.json ... # parent vs change verdicts
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// opts is one run's configuration.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	// dir is the run's private scratch directory (journal, record files),
	// removed when the run ends; traceDir receives the span JSONL.
	dir      string
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("plbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run in this process: "+strings.Join(workloadNames(), ", ")+" (empty: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	scale := fs.String("scale", "full", "full, or smoke for a seconds-long check of every code path")
	jsonOut := fs.String("json", "", "also write the results, with their environment, to this file")
	buildDir := fs.String("build-dir", ".bench_build", "directory for scratch data and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") || *seconds <= 0 {
		fmt.Fprintln(stderr, "plbench: bad arguments (see -h)")
		return 2
	}
	o := opts{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, smoke: *scale == "smoke",
		traceDir: filepath.Join(*buildDir, "traces"),
	}
	env := currentEnv()
	if o.workload == "" {
		return runAll(o, args, env, *jsonOut, stdout, stderr)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "plbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "plbench: %v\n", err)
		return 1
	}
	defer func() {
		os.RemoveAll(dir)
		// Commit the deletion now, so its cost (block discards on
		// filesystems mounted with discard; the daemon's journal holds
		// thousands of files) lands in this run, not in the next one's
		// fsyncs.
		syscall.Sync()
	}()
	o.dir = dir

	res, _, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "plbench: %s: %v\n", o.workload, err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeRecords(*jsonOut, []runRecord{{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: *trace, Env: env, Result: res}}); err != nil {
			fmt.Fprintf(stderr, "plbench: %v\n", err)
			return 1
		}
	}
	printEnv(stdout, env)
	printResult(stdout, o.workload, res)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "plbench: %s: output checks failed (%d of %d operations)\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary, so
// one workload's heap, pools and goroutines cannot disturb the next.
func runAll(o opts, args []string, env benchEnv, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "plbench: %v\n", err)
		return 1
	}
	var recs []runRecord
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(stripJSONFlag(args), "-workload", name)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		text, res, perr := splitResult(out)
		stdout.Write(text)
		if perr != nil {
			fmt.Fprintf(stderr, "plbench: %s: %v (%v)\n", name, perr, err)
			code = 1
			continue
		}
		if err != nil || !res.Correct {
			code = 1
		}
		trace := 0
		if o.trace {
			trace = 1
		}
		recs = append(recs, runRecord{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: trace, Env: env, Result: res})
	}
	if jsonOut != "" {
		if err := writeRecords(jsonOut, recs); err != nil {
			fmt.Fprintf(stderr, "plbench: %v\n", err)
			return 1
		}
	}
	return code
}

// stripJSONFlag drops -json FILE from args: the parent writes the file.
func stripJSONFlag(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "json":
			i++
		case strings.HasPrefix(a, "json="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// splitResult splits a run's standard output into its text lines and the
// parsed final JSON line.
func splitResult(out []byte) ([]byte, result, error) {
	out = bytes.TrimSpace(out)
	var res result
	i := bytes.LastIndexByte(out, '\n')
	text, last := out[:i+1], out[i+1:]
	if len(last) == 0 {
		return text, res, errors.New("no result line")
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return text, res, fmt.Errorf("bad result line: %w", err)
	}
	return text, res, nil
}

// benchEnv identifies the machine and build a result was measured on.
type benchEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() benchEnv {
	e := benchEnv{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if e.Commit != "unknown" {
			e.Commit += dirty
		}
	}
	return e
}

func printEnv(w io.Writer, e benchEnv) {
	fmt.Fprintf(w, "# nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q\n", e.NProc, e.GOMAXPROCS, e.Go, e.Commit, e.CPU)
}

func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d correct %t\n", workload, res.Attempted, res.Failed, res.Correct)
	if res.samples > 0 {
		fmt.Fprintf(w, "%s op latency samples %d\n", workload, res.samples)
	}
}

// runRecord is one run as written by -json and read by compare.
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Env      benchEnv `json:"env"`
	Result   result   `json:"result"`
}

func writeRecords(path string, recs []runRecord) error {
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
