// Command sweep runs a parameter grid of plurality-consensus processes on
// the replicate-parallel internal/mc runner and emits either one
// aggregated CSV row per (rule, graph, n, k, bias-multiplier) cell — mean
// rounds, success rate, 95% Wilson interval — or one JSONL record per
// replicate, the raw material for custom plots beyond the canned
// experiments of cmd/experiments.
//
//	sweep -rules 3majority,median -ns 10000,100000 -ks 2,8,32 -cs 0.5,1,2 -reps 20
//	sweep -graphs complete,regular:8,smallworld:10:0.1 -ns 10000 -reps 20
//	sweep -workers 8 -format jsonl -out grid.jsonl        # stream replicates
//	sweep -format jsonl -out grid.jsonl -resume           # finish an interrupted grid
//	sweep -ns 100000 -reps 8 -trace-dir traces/           # per-cell telemetry traces
//
// Every cell is an internal/service JobSpec, the spec pluralityd accepts
// as a job: engine "auto" on "complete" (the paper's clique, on the
// closed-form or sampled clique engine) and "graph" on every other
// internal/topo registry family (the CSR-sharded graph engine on one
// quenched graph per cell, shared by its replicates), bias
// core.Corollary1Bias(n, k, c), and a seed derived from -seed and the
// cell's spec, which also seeds the graph. A cell runs the job its spec
// compiles to, so its JSONL records carry JobSpec.Name() and are
// byte-identical to the records of the pluralityd job with that spec.
// Every cell passes JobSpec.Check — Validate without the daemon's
// resource caps — before the first byte of output.
//
// A grid is deterministic for a fixed -seed regardless of -workers, cells
// are reproducible in isolation, and an interrupted -format jsonl grid
// resumes from its own output file: records already on disk are not
// re-simulated, and the completed file is byte-identical to an
// uninterrupted run.
//
// Migration: before cells were JobSpecs, records were named
// rule/g=…/n=…/k=…/c=… and cells ran on other seeds, so -resume rejects
// a file written by an earlier version as a foreign grid. The CSV header
// is unchanged; its rule column now holds the -rules name (3majority, not
// 3-majority).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"plurality/internal/core"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/service"
	"plurality/internal/topo"
)

// csvHeader is the aggregated per-cell output schema.
const csvHeader = "rule,graph,n,k,bias_mult,bias,reps,rounds_mean,rounds_std,success_rate,wilson_lo,wilson_hi"

// config collects the sweep flags.
type config struct {
	rules     string
	graphs    string
	graphMode string
	graphDir  string
	sampler   string
	ns        string
	ks        string
	cs        string
	reps      int
	seed      uint64
	maxRounds int
	workers   int
	format    string
	out       string
	resume    bool
	traceDir  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.rules, "rules", "3majority", "comma-separated rules: 3majority | 3majority-utie | median | polling | 2choices | hplurality:H | 2choices-keepown | undecided (the last two on complete only)")
	flag.StringVar(&cfg.graphs, "graphs", "complete",
		"comma-separated topology specs ("+strings.Join(topo.FamilyUsages(), " | ")+")")
	flag.StringVar(&cfg.graphMode, "graph-mode", "auto", "topology backend: auto | implicit | csr | mmap (mmap caches built graphs under -graph-dir, keyed by spec, n, and graph seed)")
	flag.StringVar(&cfg.graphDir, "graph-dir", "", "directory for -graph-mode mmap CSR files (required there)")
	flag.StringVar(&cfg.sampler, "sampler", "default", "graph-engine rng draw discipline: default (per-draw byte contract) | batch (bulk block draws; faster, not draw-compatible with default)")
	flag.StringVar(&cfg.ns, "ns", "100000", "comma-separated population sizes")
	flag.StringVar(&cfg.ks, "ks", "2,8,32", "comma-separated color counts")
	flag.StringVar(&cfg.cs, "cs", "1", "comma-separated bias multipliers applied to the Cor-1 threshold")
	flag.IntVar(&cfg.reps, "reps", 20, "replicates per cell")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base seed")
	flag.IntVar(&cfg.maxRounds, "max-rounds", 200_000, "round budget per run")
	flag.IntVar(&cfg.workers, "workers", 0, "replicate parallelism (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.format, "format", "csv", "output format: csv (one aggregated row per cell) | jsonl (one record per replicate)")
	flag.StringVar(&cfg.out, "out", "", "output file (default stdout; required for -resume)")
	flag.BoolVar(&cfg.resume, "resume", false, "resume an interrupted -format jsonl -out grid, simulating only missing replicates")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "write one JSONL telemetry trace file per grid cell (one trace run per replicate simulated this process; cmd/tracereport renders them) into this directory")
	flag.Parse()

	// Ctrl-C cancels cleanly: in-flight replicates drain, the JSONL file
	// keeps a valid prefix, and -resume picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run validates the config and every grid cell, wires the output file
// and resume index, and hands off to sweep. Nothing is written, and no
// output file is opened, until every cell has passed its check.
func run(ctx context.Context, cfg config) error {
	if cfg.format != "csv" && cfg.format != "jsonl" {
		return fmt.Errorf("unknown -format %q (want csv or jsonl)", cfg.format)
	}
	if mode, err := topo.ParseMode(cfg.graphMode); err != nil {
		return err
	} else if mode == topo.ModeMmap && cfg.graphDir == "" {
		return errors.New("-graph-mode mmap requires -graph-dir")
	}
	cells, err := grid(cfg)
	if err != nil {
		return err
	}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return err
		}
	}
	var done map[string]map[int]mc.Record
	if cfg.resume {
		if cfg.format != "jsonl" || cfg.out == "" {
			return errors.New("-resume requires -format jsonl and -out FILE")
		}
		var (
			valid int64
			torn  bool
		)
		done, valid, torn, err = mc.ReadResumePrefix(cfg.out)
		if err != nil {
			return err
		}
		if torn {
			// A crash mid-write left a torn trailing line. Drop it before
			// appending — the lost replicate is re-executed deterministically.
			fmt.Fprintf(os.Stderr, "sweep: %s has a torn trailing write; truncating to %d bytes and re-running the lost replicate\n", cfg.out, valid)
			if err := os.Truncate(cfg.out, valid); err != nil {
				return err
			}
		}
	}
	if cfg.out == "" {
		return sweep(ctx, cfg, cells, os.Stdout, done)
	}
	mode := os.O_CREATE | os.O_WRONLY
	if cfg.resume {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(cfg.out, mode, 0o644)
	if err != nil {
		return err
	}
	err = sweep(ctx, cfg, cells, f, done)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cell is one grid point: the spec its job runs and the bias multiplier
// c that set the spec's Bias (the CSV's bias_mult column).
type cell struct {
	spec service.JobSpec
	c    float64
}

// grid expands the flags into the grid's cells, in output order, and
// checks every cell's spec: a bad cell fails the whole grid before any
// simulation.
func grid(cfg config) ([]cell, error) {
	nVals, err := parseInts(cfg.ns)
	if err != nil {
		return nil, err
	}
	kVals, err := parseInts(cfg.ks)
	if err != nil {
		return nil, err
	}
	cVals, err := parseFloats(cfg.cs)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, rule := range strings.Split(cfg.rules, ",") {
		for _, g := range strings.Split(cfg.graphs, ",") {
			for _, n := range nVals {
				for _, k := range kVals {
					for _, c := range cVals {
						cl, err := newCell(cfg, strings.TrimSpace(rule), strings.TrimSpace(g), n, int(k), c)
						if err != nil {
							return nil, err
						}
						cells = append(cells, cl)
					}
				}
			}
		}
	}
	return cells, nil
}

// newCell builds and checks one cell's spec.
func newCell(cfg config, rule, g string, n int64, k int, c float64) (cell, error) {
	spec := service.JobSpec{
		Rule:       rule,
		Engine:     "graph",
		Graph:      g,
		N:          n,
		K:          k,
		Bias:       strconv.FormatInt(core.Corollary1Bias(n, k, c), 10),
		Replicates: cfg.reps,
		MaxRounds:  cfg.maxRounds,
		Sampler:    cfg.sampler,
	}
	if g == "complete" {
		spec.Engine = "auto"
	}
	// Canonical topology names keep a cell's name, CSV row and graph
	// cache file alike however the spec was spelled; Check reports a
	// spec that has no canonical form.
	if canon, err := topo.Canonical(g, n); err == nil {
		spec.Graph = canon
	}
	// The seed hashes the seed-free name (seed=0), and the graph shares it.
	spec.Seed = cellSeed(cfg.seed, spec.Name())
	spec.GraphSeed = spec.Seed
	err := spec.Check()
	if err == nil && spec.Engine == "graph" && topo.Mode(cfg.graphMode) == topo.ModeImplicit {
		if implicit, _ := topo.IsImplicit(spec.Graph); !implicit {
			err = fmt.Errorf("%s has no implicit backend for -graph-mode implicit", spec.Graph)
		}
	}
	if err != nil {
		return cell{}, fmt.Errorf("cell rule=%s graph=%s n=%d k=%d c=%g: %w", rule, g, n, k, c, err)
	}
	return cell{spec: spec, c: c}, nil
}

// sweep drives the grid: one mc.Job per cell, replicates fanned out
// across a persistent pool.
func sweep(ctx context.Context, cfg config, cells []cell, w io.Writer, done map[string]map[int]mc.Record) error {
	names := make([]string, len(cells))
	for i, cl := range cells {
		names[i] = cl.spec.Name()
	}
	if err := checkResumeJobs(done, names, cfg.reps); err != nil {
		return err
	}

	pool := mc.NewPool(cfg.workers)
	defer pool.Close()

	if cfg.format == "csv" {
		if _, err := fmt.Fprintln(w, csvHeader); err != nil {
			return err
		}
	}
	for _, cl := range cells {
		if err := runCell(ctx, cfg, pool, w, done, cl); err != nil {
			return err
		}
	}
	return nil
}

// checkResumeJobs rejects a resume file that is not a record prefix of
// this grid run: jobs outside the grid, records past a cell boundary that
// an uninterrupted run would not have reached yet, or non-contiguous
// replicate indices. Appending to such a file would mix stale or
// misordered records into the output, breaking the
// byte-identical-to-uninterrupted guarantee.
func checkResumeJobs(done map[string]map[int]mc.Record, cells []string, reps int) error {
	if len(done) == 0 {
		return nil
	}
	inGrid := map[string]bool{}
	for _, cell := range cells {
		inGrid[cell] = true
	}
	for job := range done {
		if !inGrid[job] {
			return fmt.Errorf("resume file contains job %q which is not in this grid (flags changed since the interrupted run?)", job)
		}
	}
	// Records are written cell by cell in grid order and replicate by
	// replicate within a cell, so a valid interrupted file is a complete
	// run of leading cells, at most one partial cell with replicates
	// 0..m-1, and nothing after it.
	partialSeen := false
	for _, cell := range cells {
		byRep := done[cell]
		if len(byRep) == 0 {
			partialSeen = true
			continue
		}
		if partialSeen {
			return fmt.Errorf("resume file is not a prefix of this grid: cell %q has records after an incomplete cell (cell order changed since the interrupted run?)", cell)
		}
		if len(byRep) > reps {
			return fmt.Errorf("resume file has %d replicates for cell %q, more than -reps %d", len(byRep), cell, reps)
		}
		for i := 0; i < len(byRep); i++ {
			if _, ok := byRep[i]; !ok {
				return fmt.Errorf("resume file records for cell %q are not a replicate prefix (rep %d missing)", cell, i)
			}
		}
		if len(byRep) < reps {
			partialSeen = true
		}
	}
	return nil
}

// runCell executes one grid cell's job and writes its output.
func runCell(ctx context.Context, cfg config, pool *mc.Pool, w io.Writer,
	done map[string]map[int]mc.Record, cl cell) error {
	spec := cl.spec
	name := spec.Name()
	gopts := topo.BuildOpts{Mode: topo.Mode(cfg.graphMode)}
	if gopts.Mode == topo.ModeMmap {
		// The graph seed is a pure function of (base seed, cell spec), so
		// the cache file name is too: re-running the same sweep reuses the
		// on-disk graph instead of rebuilding it.
		gopts.Path = filepath.Join(cfg.graphDir, topo.CacheFileName(spec.Graph, spec.N, spec.GraphSeed))
	}
	var (
		ct         *cellTracer
		obsFor     func(seed uint64) obs.Observer
		onProgress func(mc.Record, int, int)
	)
	if cfg.traceDir != "" {
		f, err := os.Create(filepath.Join(cfg.traceDir, traceFileName(name)))
		if err != nil {
			return err
		}
		ct = &cellTracer{f: f, spec: spec}
		obsFor = func(seed uint64) obs.Observer { return ct.tracer.Recorder(seed) }
		onProgress = ct.flush
	}
	var sink func(mc.Record) error
	if cfg.format == "jsonl" {
		sink = func(rec mc.Record) error { return mc.AppendRecord(w, rec) }
	}
	recs, err := pool.Run(ctx, spec.MCJobWith(obsFor, gopts), mc.RunOpts{Done: done[name], Sink: sink, OnProgress: onProgress})
	if ct != nil {
		if cerr := ct.f.Close(); err == nil {
			err = ct.err
			if err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return err
	}
	if cfg.format == "csv" {
		agg := mc.Aggregate(recs)
		sum := agg.Rounds()
		lo, hi := agg.Wilson(1.96)
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%g,%s,%d,%.2f,%.2f,%.3f,%.3f,%.3f\n",
			spec.Rule, spec.Graph, spec.N, spec.K, cl.c, spec.Bias, agg.N, sum.Mean, sum.Std,
			agg.SuccessRate(), lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// cellTracer owns one cell's -trace-dir output: an obs.Tracer handing
// per-replicate Recorders to the job's replicates, and the cell's JSONL
// trace file. Replicates execute concurrently, but flush runs on the
// coordinating goroutine in replicate order (OnProgress contract), so
// the file carries one trace run per replicate in replicate order —
// deterministic for a fixed seed regardless of -workers. Replicates
// adopted from a -resume file never re-execute, so their traces are not
// re-created: a resumed cell's trace file covers only the replicates
// simulated by this process.
type cellTracer struct {
	tracer obs.Tracer
	f      *os.File
	spec   service.JobSpec
	err    error // first WriteTrace failure; latches, surfaced after the cell
}

// flush claims the finished replicate's recorder and appends its trace
// run, headed as pluralityd heads the same job's traces, to the cell
// file. mc fills rec.Seed for every computed replicate, which is the key
// the replicate registered the recorder under.
func (ct *cellTracer) flush(rec mc.Record, done, total int) {
	r := ct.tracer.Take(rec.Seed)
	if r == nil || ct.err != nil {
		return
	}
	ct.err = r.WriteTrace(ct.f, ct.spec.TraceHeader(rec))
}

// traceFileName maps a cell name to a filesystem-safe JSONL file name:
// every byte outside [A-Za-z0-9._-] becomes '_' (the full cell name
// still rides inside the file, in each trace run's job field).
func traceFileName(cell string) string {
	out := []byte(cell)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out) + ".jsonl"
}

// cellSeed derives the cell's job seed from the base seed and the cell's
// seed-free spec name, so a cell's replicates are reproducible regardless
// of the grid shape it is embedded in.
func cellSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.New(base ^ h.Sum64()).Uint64()
}

func parseInts(csv string) ([]int64, error) {
	parts := strings.Split(csv, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
