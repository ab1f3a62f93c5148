package validate

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/exact"
	"plurality/internal/mc"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

// EngineFactory builds one engine instance for a replicate. All engine
// randomness must derive from r (internal seeds via r.Uint64(), stepping
// via the same r), so a replicate is a pure function of its seed.
type EngineFactory func(initial colorcfg.Config, r *rng.Rand) engine.Engine

// ChainSpec is one cell of the certification family: an engine under a
// rule, an initial configuration, and a horizon. The engine's empirical
// T-round state distribution is compared against NewChain's exact one.
type ChainSpec struct {
	// Name identifies the cell in reports (engine/config/horizon).
	Name string
	// NewEngine builds the engine under test.
	NewEngine EngineFactory
	// NewChain builds the matching ground-truth chain.
	NewChain func(n int64, k int) *exact.Chain
	// Initial is the start configuration (defines n and k).
	Initial colorcfg.Config
	// Rounds is the horizon T (>= 1).
	Rounds int
}

// opaqueGraph hides the concrete source type from GraphEngine's clique
// and CSR fast-path assertions, forcing the literal neighbor-sampling path.
type opaqueGraph struct{ topo.NeighborSource }

// threeMajorityChain is the shared ground-truth constructor for the
// paper's rule.
func threeMajorityChain(n int64, k int) *exact.Chain {
	return exact.New(n, k, dynamics.ThreeMajority{})
}

// CliqueSpecs returns the standard certification cells for every clique
// engine on the 3-majority rule from the given start configuration: the
// closed-form multinomial engine, the agent-sampling engine at one and
// three workers, the graph engine on the complete graph (alias fast path
// and, via an opaque wrapper, the literal vertex-sampling path), and the
// Markov engine under the keep-own restatement checked against the
// stateful chain. All of them must realize the same exact law.
func CliqueSpecs(initial colorcfg.Config, rounds int) []ChainSpec {
	cfg := initial.Clone()
	tag := fmt.Sprintf("n=%d,k=%d,T=%d", cfg.N(), cfg.K(), rounds)
	return []ChainSpec{
		{
			Name: "clique-multinomial/3majority/" + tag,
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			},
			NewChain: threeMajorityChain,
			Initial:  cfg, Rounds: rounds,
		},
		{
			Name: "clique-sampled-w1/3majority/" + tag,
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, r.Uint64())
			},
			NewChain: threeMajorityChain,
			Initial:  cfg, Rounds: rounds,
		},
		{
			Name: "clique-sampled-w3/3majority/" + tag,
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 3, r.Uint64())
			},
			NewChain: threeMajorityChain,
			Initial:  cfg, Rounds: rounds,
		},
		{
			Name: "graph-complete/3majority/" + tag,
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					topo.NewComplete(init.N()), init, 1, r.Uint64(), nil)
			},
			NewChain: threeMajorityChain,
			Initial:  cfg, Rounds: rounds,
		},
		{
			Name: "graph-complete-literal/3majority/" + tag,
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					opaqueGraph{topo.NewComplete(init.N())}, init, 1, r.Uint64(), nil)
			},
			NewChain: threeMajorityChain,
			Initial:  cfg, Rounds: rounds,
		},
		{
			Name: "clique-markov/3majority-keepown/" + tag,
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init)
			},
			NewChain: func(n int64, k int) *exact.Chain {
				return exact.NewStateful(n, k, dynamics.ThreeMajorityKeepOwn{})
			},
			Initial: cfg, Rounds: rounds,
		},
	}
}

// RuleSpec returns a certification cell for an anonymous ProbModel rule
// on the exact multinomial engine — used to cross-check the closed-form
// adoption probabilities of the other rules (median, polling, 2-choices)
// through the same machinery.
func RuleSpec(rule dynamics.Rule, initial colorcfg.Config, rounds int) ChainSpec {
	model, ok := rule.(dynamics.ProbModel)
	if !ok {
		panic(fmt.Sprintf("validate: rule %q has no ProbModel", rule.Name()))
	}
	cfg := initial.Clone()
	return ChainSpec{
		Name: fmt.Sprintf("clique-sampled-w1/%s/n=%d,k=%d,T=%d", rule.Name(), cfg.N(), cfg.K(), rounds),
		NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
			return engine.NewCliqueSampled(rule, init, 1, r.Uint64())
		},
		NewChain: func(n int64, k int) *exact.Chain { return exact.New(n, k, model) },
		Initial:  cfg, Rounds: rounds,
	}
}

// MarkovSpec returns a certification cell for a stateful rule on the
// CliqueMarkov engine against the stateful exact chain.
func MarkovSpec[R interface {
	dynamics.StatefulRule
	dynamics.TransitionModel
}](rule R, initial colorcfg.Config, rounds int) ChainSpec {
	cfg := initial.Clone()
	return ChainSpec{
		Name: fmt.Sprintf("clique-markov/%s/n=%d,k=%d,T=%d", rule.Name(), cfg.N(), cfg.K(), rounds),
		NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
			return engine.NewCliqueMarkov(rule, init)
		},
		NewChain: func(n int64, k int) *exact.Chain { return exact.NewStateful(n, k, rule) },
		Initial:  cfg, Rounds: rounds,
	}
}

// NegativeControlSpec returns the harness's self-test cell: a
// deliberately mis-sampling engine (BiasedMutant with the given tilt)
// checked against the clean 3-majority chain. CertifyChainFamily MUST
// fail this cell — a harness that certifies the mutant has no power.
func NegativeControlSpec(eps float64, initial colorcfg.Config, rounds int) ChainSpec {
	cfg := initial.Clone()
	return ChainSpec{
		Name: fmt.Sprintf("negative-control/mutant-eps=%g/n=%d,k=%d,T=%d", eps, cfg.N(), cfg.K(), rounds),
		NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
			return engine.NewCliqueMultinomial(BiasedMutant{Eps: eps}, init)
		},
		NewChain: threeMajorityChain,
		Initial:  cfg, Rounds: rounds,
	}
}

// familyAlpha is the family-wise error rate across all chain checks in one
// CertifyChainFamily call; each test runs at familyAlpha / family size.
const familyAlpha = 1e-3

// CertifyChainFamily runs every spec's chi-square and KS checks with a
// Bonferroni correction across the whole family (two tests per spec), so
// the probability that a fully correct engine set produces any failure
// is at most familyAlpha. Results come back in spec order, chi-square
// before KS for each spec.
func CertifyChainFamily(specs []ChainSpec, opts Options) []CheckResult {
	opts = opts.withDefaults()
	alphaPer := familyAlpha / float64(2*len(specs))
	out := make([]CheckResult, 0, 2*len(specs))
	for i, spec := range specs {
		chi, ks := certifyChain(spec, alphaPer, opts.Seed+uint64(i), opts)
		out = append(out, chi, ks)
	}
	return out
}

// certifyChain executes one cell: R replicate runs of the engine for T
// rounds, tallied over the exact chain's state space and tested against
// e_start·Pᵀ by chi-square (joint distribution) and KS (c₀ marginal).
func certifyChain(spec ChainSpec, alpha float64, seed uint64, opts Options) (chi, ks CheckResult) {
	chain := spec.NewChain(spec.Initial.N(), spec.Initial.K())
	exactDist := chain.DistributionAfter(spec.Initial, spec.Rounds)

	states, err := mc.Map(ctx, opts.Pool, opts.Replicates, seed, func(_ int, r *rng.Rand) int {
		e := spec.NewEngine(spec.Initial, r)
		defer e.Close()
		for t := 0; t < spec.Rounds; t++ {
			e.Step(r)
		}
		return chain.IndexOf(e.Config())
	})
	if err != nil {
		panic("validate: replicate map failed: " + err.Error())
	}

	obs := make([]float64, chain.States())
	for _, s := range states {
		obs[s]++
	}
	exp := make([]float64, chain.States())
	for i, p := range exactDist {
		exp[i] = p * float64(opts.Replicates)
	}

	stat, df := stats.ChiSquareGOF(obs, exp)
	chi = CheckResult{
		Name:       spec.Name,
		Kind:       "chain-chi2",
		Stat:       stat,
		DF:         df,
		Alpha:      alpha,
		TV:         stats.TotalVariation(obs, exp),
		Replicates: opts.Replicates,
		Seed:       seed,
	}
	if df < 1 {
		chi.Pass = false
		chi.Detail = "degenerate comparison: too few usable bins"
	} else {
		chi.Critical = stats.ChiSquareCritical(df, alpha)
		chi.MinDetectableTV = minDetectableTV(chi.Critical, opts.Replicates)
		chi.Pass = stat <= chi.Critical
		if !chi.Pass {
			chi.Detail = fmt.Sprintf("engine law deviates from exact chain (df=%d, TV=%.4f)", df, chi.TV)
		}
	}

	// KS on the c₀ marginal: the observed histogram of the color-0 count
	// against the marginal implied by the exact state distribution
	// (discrete statistic; the critical value is conservative here).
	pmf0 := make([]float64, spec.Initial.N()+1)
	obs0 := make([]float64, spec.Initial.N()+1)
	for i, p := range exactDist {
		pmf0[chain.State(i)[0]] += p
	}
	for _, s := range states {
		obs0[chain.State(s)[0]]++
	}
	d := stats.KSDiscrete(obs0, pmf0)
	ks = CheckResult{
		Name:       spec.Name,
		Kind:       "chain-ks",
		Stat:       d,
		Critical:   stats.KSCriticalValue(opts.Replicates, alpha),
		Alpha:      alpha,
		Replicates: opts.Replicates,
		Seed:       seed,
	}
	ks.Pass = d <= ks.Critical
	if !ks.Pass {
		ks.Detail = fmt.Sprintf("c0-marginal CDF deviates: D=%.4f", d)
	}
	return chi, ks
}
