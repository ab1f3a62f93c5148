// Command plurality runs a single plurality-consensus process and prints
// its trajectory and outcome.
//
// Examples:
//
//	plurality -n 100000 -k 8 -bias auto
//	plurality -rule median -n 100000 -k 32 -bias 2000 -print-rounds
//	plurality -n 1000000 -k 8 -bias auto -trace run-trace.jsonl -phases
//	plurality -rule hplurality:9 -engine sampled -n 50000 -k 16 -bias auto
//	plurality -rule undecided -n 100000 -k 8 -bias 20000
//	plurality -engine graph -graph torus -n 10000 -k 4 -bias 2000
//	plurality -engine graph -graph torus:3 -n 1000000000 -k 3 -bias auto
//	plurality -engine graph -graph smallworld:2:0.1 -graph-file /data/sw.csr -n 100000000 -k 3 -bias auto
//	plurality -adversary strongest:200 -n 200000 -k 4 -bias auto
//
// The flags -rule, -engine, -graph, -n, -k, -bias, -seed and -max-rounds
// fill an internal/service JobSpec, the spec pluralityd accepts as a job,
// and the run is replicate 0 of that spec's one-replicate job: the spec's
// builder makes the engine, on the job's graph (drawn from
// rng.New(seed)), and the run draws from rng.New(mc.RepSeeds(seed, 1)[0]).
// A -trace file carries that replicate's header (JobSpec.TraceHeader: the
// job name, rep 0 and the replicate's seed), as sweep -trace-dir files
// and traced pluralityd jobs do. Without -graph-file the graph is the
// family default: an implicit family computes its neighbors, and any
// other is built in RAM. With it the graph's CSR is served memory-mapped
// from that file, built there first if the file is absent. Neither
// -workers nor -graph-file changes a run, so at any -workers and without
// -adversary or -m-plurality, a run reports the rounds and outcome that
// replicate 0 of the pluralityd job with the same spec records. The
// exception is undecided: the run goes on to full consensus
// (core.WhenConsensusOf), while job records stop once the colored agents
// are monochromatic (core.WhenMonochromatic). The spec passes
// JobSpec.Check, which is Validate without the daemon's resource caps, so
// bad input is an error and a run may exceed the caps.
//
// Migration: before runs were JobSpec replicates, the engine seeds
// derived from -seed directly and the run drew from rng.New(seed), so a
// seeded run's trajectory differs from earlier versions. The graph is
// unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/service"
	"plurality/internal/topo"
)

// config collects the flags: spec is the run; the rest pick the graph
// file and worker count, the CLI-side core.Options (adversary, stop
// rule) and what is printed or written.
type config struct {
	spec        service.JobSpec
	graphFile   string
	workers     int
	adversary   string
	printRounds bool
	traceFile   string
	mPlurality  int64
	phases      bool
}

func main() {
	var cfg config
	s := &cfg.spec
	flag.StringVar(&s.Rule, "rule", "3majority", "dynamics: 3majority | 3majority-utie | hplurality:H | median | polling | 2choices | 2choices-keepown | undecided")
	flag.StringVar(&s.Engine, "engine", "auto", "engine: auto | multinomial | sampled | graph | population")
	flag.StringVar(&s.Graph, "graph", "complete", "topology for -engine graph (internal/topo registry spec): complete | cycle | star | torus[:DIMS] | hypercube | regular:D | gnp:P | smallworld:K:BETA | ba:M | sbm:B:PIN:POUT | barbell:D")
	flag.StringVar(&cfg.graphFile, "graph-file", "", "serve the -engine graph topology memory-mapped from this CSR file, created atomically when missing (default: in RAM, or computed for an implicit family)")
	flag.Int64Var(&s.N, "n", 100_000, "number of agents")
	flag.IntVar(&s.K, "k", 8, "number of colors")
	flag.StringVar(&s.Bias, "bias", "auto", "initial additive bias (integer) or 'auto' for the Corollary 1 threshold")
	flag.Uint64Var(&s.Seed, "seed", 1, "random seed")
	flag.IntVar(&s.MaxRounds, "max-rounds", 1_000_000, "round budget")
	flag.StringVar(&cfg.adversary, "adversary", "none", "adversary: none | strongest:F | spread:F | random:F | boost:F")
	flag.IntVar(&cfg.workers, "workers", 4, "worker goroutines for the sampled/graph engines")
	flag.BoolVar(&cfg.printRounds, "print-rounds", false, "print the configuration every round")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a JSONL telemetry trace (per-round wall time, convergence stats, memory samples; cmd/tracereport renders it) to this file")
	flag.Int64Var(&cfg.mPlurality, "m-plurality", -1, "stop at M-plurality consensus instead of full consensus")
	flag.BoolVar(&cfg.phases, "phases", false, "print the Lemma 3/4/5 phase segmentation of the recorded rounds after the run")
	flag.Parse()

	if _, err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "plurality:", err)
		os.Exit(1)
	}
}

// build checks the flags' spec and builds replicate 0 of its
// one-replicate job: the engine, on the job's graph, and the replicate's
// generator.
func build(cfg config) (service.JobSpec, engine.Engine, *rng.Rand, error) {
	spec := cfg.spec
	spec.Replicates = 1
	spec.GraphSeed = spec.Seed
	if err := spec.Check(); err != nil {
		return spec, nil, nil, err
	}
	if cfg.graphFile != "" && spec.Engine != "graph" {
		return spec, nil, nil, fmt.Errorf("-graph-file needs -engine graph, got -engine %s", spec.Engine)
	}
	var g topo.NeighborSource
	if spec.Engine == "graph" {
		var err error
		g, err = spec.BuildGraph(topo.BuildOpts{Path: cfg.graphFile})
		if err != nil {
			return spec, nil, nil, err
		}
	}
	bias, _ := spec.BiasValue() // Check accepted it
	r := rng.New(rep0(spec).Seed)
	return spec, spec.BuildEngine(colorcfg.Biased(spec.N, spec.K, bias), g, cfg.workers, r), r, nil
}

// rep0 is the record identity of a checked spec's run: replicate 0 of its
// one-replicate job, with that replicate's seed.
func rep0(spec service.JobSpec) mc.Record {
	return mc.Record{Job: spec.Name(), Seed: mc.RepSeeds(spec.Seed, 1)[0]}
}

// run executes the flags' run, reports it on w and returns its result.
func run(w io.Writer, cfg config) (core.Result, error) {
	adv, err := parseAdversary(cfg.adversary)
	if err != nil {
		return core.Result{}, err
	}
	spec, eng, r, err := build(cfg)
	if err != nil {
		return core.Result{}, err
	}
	defer eng.Close()
	n, k := spec.N, spec.K

	stop := core.WhenConsensusOf(n)
	if cfg.mPlurality >= 0 {
		stop = core.WhenMPlurality(n, cfg.mPlurality)
	}

	opts := core.Options{
		MaxRounds: spec.MaxRounds,
		Rand:      r,
		Adversary: adv,
		Stop:      stop,
	}
	var rec *obs.Recorder
	if cfg.traceFile != "" || cfg.phases {
		rec = &obs.Recorder{}
	}
	if rec != nil || cfg.printRounds {
		opts.Observer = obs.ObserverFunc(func(round int, agents int64, wallNs int64, c colorcfg.Config) {
			if rec != nil {
				rec.ObserveRound(round, agents, wallNs, c)
			}
			if cfg.printRounds {
				first, second := c.TopTwo()
				fmt.Fprintf(w, "round %5d  top=%d  c1=%d  c2=%d  bias=%d  support=%d\n",
					round, c.Plurality(), first, second, c.Bias(), c.Support())
			}
		})
	}

	bias, _ := spec.BiasValue()
	fmt.Fprintf(w, "engine: %s\n", eng.Name())
	fmt.Fprintf(w, "start:  n=%d k=%d bias=%d (cor1 threshold: %d)\n",
		n, k, bias, core.Corollary1Bias(n, k, 1.0))
	res := core.Run(eng, opts)

	fmt.Fprintf(w, "rounds: %d (stopped=%v)\n", res.Rounds, res.Stopped)
	fmt.Fprintf(w, "winner: color %d (initial plurality %d, won=%v)\n",
		res.Winner, res.InitialPlurality, res.WonInitialPlurality)
	first, _ := res.Final.TopTwo()
	fmt.Fprintf(w, "final:  c_max=%d/%d minority-mass=%d\n", first, n, n-first)
	lambda := core.Lambda(n, k)
	fmt.Fprintf(w, "theory: λ=%.3g, predicted O(λ·ln n)=%.0f rounds\n",
		lambda, core.UpperBoundRounds(n, lambda, 1))
	if cfg.phases {
		fmt.Fprintf(w, "\n%s", obs.PhaseSummary(rec.Rounds(nil), rec.Dropped()))
	}
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		werr := rec.WriteTrace(f, spec.TraceHeader(rep0(spec)))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return res, fmt.Errorf("write trace: %w", werr)
		}
		sum := rec.Summarize()
		fmt.Fprintf(w, "trace:  %d rounds (%d retained) written to %s, %.1f ns/agent\n",
			sum.Rounds, sum.Retained, cfg.traceFile, sum.NsPerAgent)
	}
	return res, nil
}

func parseAdversary(s string) (adversary.Adversary, error) {
	if s == "none" {
		return adversary.None{}, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("adversary %q needs a budget, e.g. strongest:100", s)
	}
	f, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || f < 0 {
		return nil, fmt.Errorf("bad adversary budget in %q", s)
	}
	switch parts[0] {
	case "strongest":
		return adversary.Strongest{F: f}, nil
	case "spread":
		return adversary.Spread{F: f}, nil
	case "random":
		return adversary.Random{F: f}, nil
	case "boost":
		return adversary.Boost{F: f}, nil
	}
	return nil, fmt.Errorf("unknown adversary %q", parts[0])
}
