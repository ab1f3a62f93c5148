package service

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// Resource caps enforced by JobSpec.Validate. They bound what a single
// request can pin in memory or burn in CPU, so a hostile or typo'd spec
// is rejected at admission instead of wedging the shared worker pool.
const (
	// MaxK bounds the number of colors (the engines hold O(k) state per
	// replicate; the alias tables are rebuilt per round).
	MaxK = 4096
	// MaxReplicates bounds the Monte Carlo fan-out of one job.
	MaxReplicates = 100_000
	// MaxMaxRounds bounds the per-replicate round budget.
	MaxMaxRounds = 10_000_000
	// MaxNExact bounds n for the O(k)-per-round count-based engines
	// (multinomial, markov, undecided): n only enters the arithmetic, so
	// the bound is generous.
	MaxNExact = 1_000_000_000
	// MaxNSampled bounds n for the O(n)-per-round agent-level engines
	// (sampled, population).
	MaxNSampled = 100_000_000
	// MaxNGraph bounds n for the graph engine on materialized families,
	// which hold the full adjacency in RAM; the per-family adjacency memory
	// is capped separately by topo.MaxAdjEntries inside the registry
	// validation. The CSR-sharded engine sustains rounds at this scale in
	// well under 2 GB.
	MaxNGraph = 10_000_000
	// MaxNGraphImplicit bounds n for the graph engine on implicit families
	// (topo.IsImplicit: complete, cycle, star, torus, hypercube), whose
	// neighbors are computed rather than stored — the only per-agent memory
	// is the color arrays, so the cap matches the exact engines'.
	MaxNGraphImplicit = 1_000_000_000
	// MaxH bounds h in rule hplurality:H. The sampled and graph engines
	// buffer at least h colors per worker, so one replicate's memory grows
	// linearly in h (a single round at h = 10⁸ allocated 381 MB), and
	// Cost does not see h. E5 and examples/hplurality use h ≤ 33.
	MaxH = 64
	// DefaultMaxRounds is applied when a spec omits max_rounds.
	DefaultMaxRounds = 200_000
)

// JobSpec is the run spec of every surface: the wire format of a
// pluralityd job, what cmd/plurality's flags fill, and each cmd/sweep
// grid cell. The zero value of every optional field means "default" (see
// Normalize).
//
// Determinism contract: the per-replicate records of a job are a pure
// function of the spec — replicate i runs on rng.New(mc.RepSeeds(Seed,
// Replicates)[i]) and nothing else — so resubmitting a spec yields
// byte-identical JSONL regardless of the server's worker count, executor
// count, or scheduling.
type JobSpec struct {
	// Rule is the dynamics: 3majority | 3majority-utie | median | polling |
	// 2choices | hplurality:H | 2choices-keepown | undecided.
	Rule string `json:"rule,omitempty"`
	// Engine is the simulation engine: auto | multinomial | sampled |
	// graph | population. The stateful rules (2choices-keepown, undecided)
	// carry their own engines and require auto.
	Engine string `json:"engine,omitempty"`
	// Graph is the topology spec for Engine == "graph", resolved through
	// the internal/topo registry (topo.FamilyUsages lists the families:
	// complete, cycle, star, torus[:DIMS], hypercube, regular:D, gnp:P,
	// smallworld:K:BETA, ba:M, sbm:B:PIN:POUT, barbell:D).
	Graph string `json:"graph,omitempty"`
	// GraphSeed seeds the topology generator for Engine == "graph". All
	// replicates of a job share the one graph built from it (quenched
	// randomness: the Monte Carlo averages over process noise on a fixed
	// structure). Zero means "derive from Seed" (see Normalize).
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// N is the number of agents.
	N int64 `json:"n"`
	// K is the number of colors.
	K int `json:"k"`
	// Bias is the initial additive bias toward color 0: a non-negative
	// integer, or "auto" for the Corollary 1 threshold.
	Bias string `json:"bias,omitempty"`
	// Replicates is the number of independent Monte Carlo executions.
	Replicates int `json:"replicates,omitempty"`
	// Seed is the base seed all replicate seeds derive from.
	Seed uint64 `json:"seed"`
	// MaxRounds is the per-replicate round budget.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Sampler selects the graph engine's rng draw discipline: "default"
	// (the per-draw byte contract pinned by the golden traces) or "batch"
	// (bulk Uint64-block generation — deterministic, certified by its own
	// golden, but not draw-compatible with default). Only meaningful for
	// Engine == "graph".
	Sampler string `json:"sampler,omitempty"`
	// Trace enables run-level telemetry capture: the first replicates of
	// the job run with an obs.Recorder attached and their JSONL traces are
	// served by GET /v1/jobs/{id}/trace. Tracing never influences the
	// records (observers consume zero rng — see internal/obs), so Trace is
	// deliberately excluded from Name(): a traced job's record stream is
	// byte-identical to the untraced submission. Traces live in memory
	// only — they are not journaled, and a crash-resumed job does not
	// recreate the prefix it adopted.
	Trace bool `json:"trace,omitempty"`
}

// Normalize fills defaulted fields in place. It is idempotent and must be
// called before Validate.
func (s *JobSpec) Normalize() {
	if s.Rule == "" {
		s.Rule = "3majority"
	}
	if s.Engine == "" {
		s.Engine = "auto"
	}
	if s.Graph == "" {
		s.Graph = "complete"
	}
	if s.GraphSeed == 0 {
		s.GraphSeed = s.Seed
	}
	if s.Bias == "" {
		s.Bias = "auto"
	}
	if s.Replicates == 0 {
		s.Replicates = 1
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = DefaultMaxRounds
	}
	if s.Sampler == "" {
		s.Sampler = "default"
	}
}

// statefulEngines maps the rules that carry their own engine and accept
// only Engine == "auto".
var statefulEngines = map[string]bool{"undecided": true, "2choices-keepown": true}

// resolve parses the rule and maps Engine == "auto" to the concrete engine
// for it, checking rule/engine compatibility and, for the graph engine,
// the topology; capped adds the service's n cap for the graph family. The
// rule is nil for the stateful protocols, whose engine is their name.
func (s *JobSpec) resolve(capped bool) (dynamics.Rule, string, error) {
	if statefulEngines[s.Rule] {
		if s.Engine != "auto" {
			return nil, "", fmt.Errorf("rule %q carries its own engine; use engine \"auto\"", s.Rule)
		}
		return nil, s.Rule, nil
	}
	rule, err := dynamics.ParseRule(s.Rule)
	if err != nil {
		return nil, "", err
	}
	_, isProb := rule.(dynamics.ProbModel)
	eng := s.Engine
	if eng == "auto" {
		if isProb {
			eng = "multinomial"
		} else {
			eng = "sampled"
		}
	}
	switch eng {
	case "multinomial":
		if !isProb {
			return nil, "", fmt.Errorf("rule %q has no closed-form adoption probabilities; use engine \"sampled\"", s.Rule)
		}
	case "sampled", "population":
	case "graph":
		if err := s.checkGraph(capped); err != nil {
			return nil, "", err
		}
	default:
		return nil, "", fmt.Errorf("unknown engine %q", s.Engine)
	}
	return rule, eng, nil
}

// engineLabel is the resolved engine, or "invalid" for a spec that does
// not resolve. It labels job names, metrics and traces.
func (s *JobSpec) engineLabel() string {
	if _, eng, err := s.resolve(false); err == nil {
		return eng
	}
	return "invalid"
}

// graphMaxN is the n cap for the spec's graph family: implicit families
// carry no adjacency and get the generous cap; anything else (including an
// unknown family — topo.Validate reports those) gets the materialized cap.
func (s *JobSpec) graphMaxN() int64 {
	if implicit, err := topo.IsImplicit(s.Graph); err == nil && implicit {
		return MaxNGraphImplicit
	}
	return MaxNGraph
}

// checkGraph validates the Graph field through the topo registry so a bad
// topology is a 400, not a crash. With capped, the n cap comes first: it
// bounds every number the registry's validation arithmetic sees, so a
// hostile request is rejected in constant time. A registry size-cap
// rejection (topo.ErrTooLarge) gets a remediation hint appended — the
// client asked for something well-formed that simply does not fit in RAM.
func (s *JobSpec) checkGraph(capped bool) error {
	maxN := int64(math.MaxInt64)
	if capped {
		maxN = s.graphMaxN()
	}
	if s.N < 1 || s.N > maxN {
		return fmt.Errorf("graph engine needs n in [1, %d] for family %q, got %d", maxN, s.Graph, s.N)
	}
	if err := topo.Validate(s.Graph, s.N); err != nil {
		if errors.Is(err, topo.ErrTooLarge) {
			return fmt.Errorf("%w (hint: use an implicit family — complete, cycle, star, torus, hypercube — which materializes nothing, or build the graph to disk and run it with mmap mode via cmd/plurality -graph-mode mmap)", err)
		}
		return err
	}
	return nil
}

// BiasValue parses the Bias field; "auto" resolves to the Corollary 1
// threshold clamped to n (tiny populations can sit below the threshold).
// The initial configuration of every replicate is colorcfg.Biased(N, K,
// BiasValue()).
func (s *JobSpec) BiasValue() (int64, error) {
	if s.Bias == "auto" {
		b := core.Corollary1Bias(s.N, s.K, 1.0)
		if b > s.N {
			b = s.N
		}
		return b, nil
	}
	v, err := strconv.ParseInt(s.Bias, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bias %q (want \"auto\" or an integer)", s.Bias)
	}
	if v < 0 || v > s.N {
		return 0, fmt.Errorf("bias %d outside [0, n=%d]", v, s.N)
	}
	return v, nil
}

// Validate checks the (normalized) spec against the engine and graph
// preconditions and the service resource caps. All problems are reported
// at once, joined into one error.
func (s *JobSpec) Validate() error { return s.check(true) }

// Check is Validate without the service's resource caps (MaxK,
// MaxReplicates, MaxMaxRounds, MaxN*, MaxH). The caps are admission
// policy for a shared daemon, not preconditions of the engines, so the
// CLIs gate their specs with Check: a spec runs locally at any size the
// engines and the topology registry accept, such as cmd/plurality's
// 10⁸-vertex mmap smallworld run. Every spec Validate accepts, Check
// accepts.
func (s *JobSpec) Check() error { return s.check(false) }

func (s *JobSpec) check(capped bool) error {
	var errs []error
	// within reports v outside [lo, hi]; hi is a service cap, so only
	// Validate enforces it.
	within := func(name string, v, lo, hi int64) {
		switch {
		case capped && (v < lo || v > hi):
			errs = append(errs, fmt.Errorf("%s must be in [%d, %d], got %d", name, lo, hi, v))
		case !capped && v < lo:
			errs = append(errs, fmt.Errorf("%s must be >= %d, got %d", name, lo, v))
		}
	}
	if s.N < 1 {
		errs = append(errs, fmt.Errorf("n must be >= 1, got %d", s.N))
	}
	within("k", int64(s.K), 2, MaxK)
	within("replicates", int64(s.Replicates), 1, MaxReplicates)
	within("max_rounds", int64(s.MaxRounds), 1, MaxMaxRounds)
	if s.N >= 1 {
		if _, err := s.BiasValue(); err != nil {
			errs = append(errs, err)
		}
	}
	sampler, samplerErr := engine.ParseSampler(s.Sampler)
	if samplerErr != nil {
		errs = append(errs, samplerErr)
	}
	rule, eng, err := s.resolve(capped)
	if err != nil {
		errs = append(errs, err)
	} else if samplerErr == nil && sampler == engine.SamplerBatch && eng != "graph" {
		errs = append(errs, fmt.Errorf("sampler \"batch\" applies only to the graph engine, not %q", eng))
	} else if capped {
		maxN := int64(MaxNExact)
		switch eng {
		case "sampled", "population":
			maxN = MaxNSampled
		case "graph":
			maxN = s.graphMaxN()
		}
		if s.N > maxN {
			errs = append(errs, fmt.Errorf("n = %d exceeds the %s-engine cap %d", s.N, eng, maxN))
		}
		if h, ok := rule.(dynamics.HPlurality); ok && h.H > MaxH {
			errs = append(errs, fmt.Errorf("h = %d in rule %q exceeds the cap %d", h.H, s.Rule, MaxH))
		}
	}
	if s.K >= 2 && s.N >= 1 && int64(s.K) > s.N {
		errs = append(errs, fmt.Errorf("k = %d exceeds n = %d", s.K, s.N))
	}
	return errors.Join(errs...)
}

// Name is the canonical job identifier stored in every mc.Record. It
// covers every spec field that influences the records, so two JSONL
// streams with equal names are byte-identical.
func (s *JobSpec) Name() string {
	eng := s.engineLabel()
	name := fmt.Sprintf("%s/%s/n=%d/k=%d/bias=%s/rounds=%d/seed=%d",
		s.Rule, eng, s.N, s.K, s.Bias, s.MaxRounds, s.Seed)
	if eng == "graph" {
		// The generator seed is part of the identity: the same spec with
		// a different graph_seed runs on a different quenched topology.
		name = fmt.Sprintf("%s/graph=%s/gseed=%d", name, s.Graph, s.GraphSeed)
		// The relaxed sampler changes the per-replicate rng streams, so it
		// is part of the identity too; the default is omitted to keep
		// pre-existing job names (and resumable journals) stable.
		if sampler, err := engine.ParseSampler(s.Sampler); err == nil && sampler == engine.SamplerBatch {
			name += "/sampler=batch"
		}
	}
	return name
}

// Cost estimates the total work of the job in "agent updates" — the unit
// the sync/async routing threshold is expressed in. Count-based engines
// advance a whole round in O(k); agent-based engines touch all n agents.
// The product saturates at MaxInt64 instead of wrapping, so a huge (but
// individually-capped) spec can never route onto the synchronous path.
func (s *JobSpec) Cost() int64 {
	perRound := int64(s.K)
	switch s.engineLabel() {
	case "sampled", "graph", "population":
		perRound = s.N
	}
	cost := float64(s.Replicates) * float64(s.MaxRounds) * float64(perRound)
	if cost >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(cost)
}

// TraceHeader labels the telemetry trace of replicate rec of the spec's
// job, in pluralityd's traced jobs and cmd/sweep's -trace-dir files alike.
func (s *JobSpec) TraceHeader(rec mc.Record) obs.Header {
	return obs.Header{Engine: s.engineLabel(), Rule: s.Rule, N: s.N, K: s.K,
		Seed: rec.Seed, Job: rec.Job, Rep: rec.Rep}
}

// BuildEngine constructs one replicate's engine. It is the only code that
// turns a spec into an engine: pluralityd jobs, cmd/sweep cells and
// cmd/plurality runs all call it. The spec must have passed Check. init
// is colorcfg.Biased(N, K, BiasValue()); g is the quenched topology from
// BuildGraph for the graph engine and nil otherwise; workers is the
// agent-level engines' step parallelism (jobs and sweep cells pass 1:
// their replicates already fan out across a pool); r is the replicate's
// private generator, from which graph layouts and engine seeds draw, so
// a replicate is a pure function of its seed and workers.
func (s *JobSpec) BuildEngine(init colorcfg.Config, g topo.NeighborSource, workers int, r *rng.Rand) engine.Engine {
	rule, eng, err := s.resolve(false)
	if err != nil {
		panic(fmt.Sprintf("service: BuildEngine on unchecked spec: %v", err))
	}
	switch eng {
	case "undecided":
		return engine.NewUndecidedExact(init)
	case "2choices-keepown":
		return engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
	case "multinomial":
		return engine.NewCliqueMultinomial(rule, init)
	case "sampled":
		return engine.NewCliqueSampled(rule, init, workers, r.Uint64())
	case "population":
		return engine.NewPopulation(rule, init)
	}
	// The graph engine, the only one with a sampler choice.
	sampler, err := engine.ParseSampler(s.Sampler)
	if err != nil {
		panic(fmt.Sprintf("service: BuildEngine on unchecked spec: %v", err))
	}
	return engine.NewGraphEngineOpts(rule, g, init, workers, r.Uint64(), r,
		engine.GraphOpts{Sampler: sampler})
}

// BuildGraph builds the graph engine's quenched topology from GraphSeed
// behind the backend opts selects; every backend yields the same seeded
// run. pluralityd passes the zero value. CSR structures are read-only
// during stepping, so one instance is safely shared by all concurrently
// running replicates of a job.
func (s *JobSpec) BuildGraph(opts topo.BuildOpts) (topo.NeighborSource, error) {
	return topo.BuildSource(s.Graph, s.N, rng.New(s.GraphSeed), opts)
}

// MCJob compiles the spec into the mc.Job executed on the worker pool.
// The spec must have passed Validate.
func (s *JobSpec) MCJob() mc.Job {
	return s.MCJobWith(nil, topo.BuildOpts{})
}

// MCJobWith is MCJob with per-replicate telemetry and a topology backend.
// A non-nil obsFor is asked for each replicate's observer, keyed by the
// replicate's private seed, and a replicate runs with the observer it
// returns attached. Because observers consume zero rng (the obs.Observer
// contract), the records are byte-identical to MCJob's — only the
// side-channel telemetry differs. gopts selects the backend of the graph
// engine's shared topology (see BuildGraph). The spec must have passed
// Check.
func (s *JobSpec) MCJobWith(obsFor func(seed uint64) obs.Observer, gopts topo.BuildOpts) mc.Job {
	spec := *s // detach from the caller's copy
	bias, err := spec.BiasValue()
	if err != nil {
		panic(fmt.Sprintf("service: MCJob on unchecked spec: %v", err))
	}
	job := mc.Job{
		Name:       spec.Name(),
		Seed:       spec.Seed,
		Replicates: spec.Replicates,
		MaxRounds:  spec.MaxRounds,
	}
	// The quenched topology is built once, lazily (on the first replicate
	// that needs it, off the admission path), and shared by every
	// replicate: graph generation can dominate a short job, and the
	// structure is immutable during stepping.
	var sharedGraph func() topo.NeighborSource
	if spec.engineLabel() == "graph" {
		sharedGraph = sync.OnceValue(func() topo.NeighborSource {
			g, err := spec.BuildGraph(gopts)
			if err != nil {
				panic(fmt.Sprintf("service: graph of %s: %v", job.Name, err))
			}
			return g
		})
	}
	job.New = func(seed uint64) mc.Run {
		maxRounds := job.MaxRounds
		return func() mc.Record {
			r := rng.New(seed)
			init := colorcfg.Biased(spec.N, spec.K, bias)
			var g topo.NeighborSource
			if sharedGraph != nil {
				g = sharedGraph()
			}
			eng := spec.BuildEngine(init, g, 1, r)
			defer eng.Close()
			opts := core.Options{MaxRounds: maxRounds, Rand: r}
			if obsFor != nil {
				opts.Observer = obsFor(seed)
			}
			res := core.Run(eng, opts)
			return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
		}
	}
	return job
}
