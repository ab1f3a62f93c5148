package validate

import (
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

// testOpts returns the deterministic option set used across the suite.
func testOpts(seed uint64) Options {
	return Options{Replicates: 4000, Seed: seed}
}

// certFamily is the acceptance family: every clique engine × two start
// configurations (n ≤ 8, k ≤ 3) × two horizons, plus the anonymous rule
// zoo and the stateful comparator on their ground-truth chains.
func certFamily() []ChainSpec {
	var specs []ChainSpec
	specs = append(specs, CliqueSpecs(colorcfg.FromCounts(3, 2, 1), 1)...)
	specs = append(specs, CliqueSpecs(colorcfg.FromCounts(4, 3, 1), 3)...)
	specs = append(specs, CliqueSpecs(colorcfg.FromCounts(4, 4), 2)...)
	specs = append(specs,
		RuleSpec(dynamics.Median{}, colorcfg.FromCounts(3, 2, 2), 2),
		RuleSpec(dynamics.Polling{}, colorcfg.FromCounts(4, 2), 2),
		RuleSpec(dynamics.TwoChoices{}, colorcfg.FromCounts(3, 3, 1), 1),
		MarkovSpec(dynamics.TwoChoicesKeepOwn{}, colorcfg.FromCounts(4, 2, 2), 2),
	)
	return specs
}

// TestCertifyCliqueEngines is the acceptance gate: all clique engines
// must match the exact chain in distribution (chi-square + KS, family
// α=0.001 with Bonferroni) on every cell.
func TestCertifyCliqueEngines(t *testing.T) {
	results := CertifyChainFamily(certFamily(), testOpts(42))
	for _, r := range results {
		if r.DF != 0 && r.DF < 3 {
			t.Errorf("%s: suspiciously few degrees of freedom (%d)", r.Name, r.DF)
		}
		if !r.Pass {
			t.Errorf("certification failed: %s", r)
		}
	}
	if len(results) != 2*len(certFamily()) {
		t.Fatalf("expected 2 results per spec, got %d for %d specs", len(results), len(certFamily()))
	}
}

// TestNegativeControlFails: the harness must reject the deliberately
// mis-sampling mutant engine. A family in which the mutant passes has no
// statistical power, so this test failing means the harness — not the
// engine — is broken.
func TestNegativeControlFails(t *testing.T) {
	specs := []ChainSpec{
		NegativeControlSpec(0.15, colorcfg.FromCounts(3, 2, 1), 1),
		NegativeControlSpec(0.15, colorcfg.FromCounts(4, 3, 1), 3),
	}
	results := CertifyChainFamily(specs, testOpts(43))
	chi2Failed := false
	for _, r := range results {
		if r.Kind == "chain-chi2" && !r.Pass {
			chi2Failed = true
		}
	}
	if !chi2Failed {
		t.Fatalf("mutant engine passed every chi-square check — harness has no power: %v", results)
	}
}

// TestNegativeControlSubtle: even a small tilt must fall to the χ² test
// at the standard replicate budget once the horizon compounds it.
func TestNegativeControlSubtle(t *testing.T) {
	if testing.Short() {
		t.Skip("power check is slow")
	}
	specs := []ChainSpec{NegativeControlSpec(0.08, colorcfg.FromCounts(4, 3, 1), 3)}
	results := CertifyChainFamily(specs, Options{Replicates: 8000, Seed: 44})
	if results[0].Pass {
		t.Errorf("eps=0.08 mutant passed chi-square at 8000 replicates: %s", results[0])
	}
}

// TestDeterministicVerdicts: the entire family must produce identical
// results on identical seeds — the contract that makes a CI failure
// reproducible locally.
func TestDeterministicVerdicts(t *testing.T) {
	specs := CliqueSpecs(colorcfg.FromCounts(3, 2, 1), 1)
	a := CertifyChainFamily(specs, testOpts(7))
	b := CertifyChainFamily(specs, testOpts(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across identical runs:\n%v\n%v", i, a[i], b[i])
		}
	}
	// And a different seed must actually change the sampled statistics.
	c := CertifyChainFamily(specs, testOpts(8))
	same := true
	for i := range a {
		if a[i].Stat != c[i].Stat {
			same = false
		}
	}
	if same {
		t.Fatal("statistics identical across different seeds — seeding is not wired through")
	}
}

// TestPowerAccounting: every chi-square result must report its minimum
// detectable TV, and the budget must make it meaningfully small (the
// family would miss only sub-5% deviations).
func TestPowerAccounting(t *testing.T) {
	results := CertifyChainFamily(CliqueSpecs(colorcfg.FromCounts(3, 2, 1), 1), testOpts(45))
	for _, r := range results {
		if r.Kind != "chain-chi2" {
			continue
		}
		if r.MinDetectableTV <= 0 || r.MinDetectableTV > 0.2 {
			t.Errorf("%s: min detectable TV %.4f out of the credible range", r.Name, r.MinDetectableTV)
		}
		if r.Seed == 0 {
			t.Errorf("%s: seed not recorded", r.Name)
		}
	}
}

func TestMeanFieldTracking(t *testing.T) {
	if testing.Short() {
		t.Skip("mean-field replicates are slow")
	}
	for _, spec := range StandardMeanFieldSpecs() {
		res := CheckMeanField(spec, testOpts(46))
		if !res.Pass {
			t.Errorf("mean-field check failed: %s", res)
		}
		if res.Critical <= 0 {
			t.Errorf("%s: tolerance band not derived", res.Name)
		}
	}
}

// TestMeanFieldDetectsMutant: the ODE band must be tight enough to
// reject the tilted engine (whose trajectory drifts toward color 0 by
// ~eps per round — orders of magnitude outside the O(1/√n) band).
func TestMeanFieldDetectsMutant(t *testing.T) {
	if testing.Short() {
		t.Skip("mean-field replicates are slow")
	}
	spec := StandardMeanFieldSpecs()[0]
	spec.Name = "meanfield/negative-control"
	spec.NewEngine = func(in colorcfg.Config, _ *rng.Rand) engine.Engine {
		return engine.NewCliqueMultinomial(BiasedMutant{Eps: 0.05}, in)
	}
	if res := CheckMeanField(spec, testOpts(50)); res.Pass {
		t.Errorf("mutant engine stayed inside the ODE band — band too loose: %s", res)
	}
}

func TestConsensusWHP(t *testing.T) {
	if testing.Short() {
		t.Skip("property replicates are slow")
	}
	res := CheckConsensusWHP(DefaultConsensusWHPSpec(), testOpts(47))
	if !res.Pass {
		t.Errorf("consensus-w.h.p. property failed: %s", res)
	}
}

func TestBiasMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("property replicates are slow")
	}
	res := CheckBiasMonotonicity(DefaultBiasMonotonicitySpec(), testOpts(48))
	if !res.Pass {
		t.Errorf("bias-monotonicity property failed: %s", res)
	}
}

func TestMDScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("property replicates are slow")
	}
	res := CheckMDScaling(DefaultMDScalingSpec(), testOpts(49))
	if !res.Pass {
		t.Errorf("md-scaling property failed: %s", res)
	}
}

func TestCheckResultString(t *testing.T) {
	r := CheckResult{Name: "x", Kind: "chain-chi2", Stat: 1, Critical: 2, Pass: true}
	if !strings.HasPrefix(r.String(), "PASS") {
		t.Errorf("bad render: %q", r.String())
	}
	r.Pass = false
	r.Detail = "boom"
	if s := r.String(); !strings.HasPrefix(s, "FAIL") || !strings.Contains(s, "boom") {
		t.Errorf("bad render: %q", s)
	}
}
