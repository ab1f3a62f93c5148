// Command validate runs the statistical cross-validation harness
// (internal/validate) as a grid over rule × engine × configuration and
// emits a JSONL report: every line is one validate.CheckResult.
//
//	go run ./cmd/validate -tier quick -out report.jsonl
//	go run ./cmd/validate -tier full -workers 8 -seed 7
//
// The quick tier (CI on every PR) certifies all clique engines against
// the exact chain on small state spaces and runs the golden-trace suite,
// the topology contracts, the mean-field bands and the paper-level
// property checks; the full tier (scheduled CI / the validate-full PR
// label) widens the chain grid and raises its replicate budget.
//
// Negative controls are part of both tiers: deliberately mis-sampling
// engines run through the same machinery and MUST fail. The process
// exits non-zero if any regular check fails or any control passes, so a
// green run certifies both the engines and the harness's power.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/mc"
	"plurality/internal/validate"
)

func main() {
	var (
		tier       = flag.String("tier", "quick", "validation tier: quick | full")
		out        = flag.String("out", "", "JSONL report path (empty: no file, stdout summary only)")
		seed       = flag.Uint64("seed", 1, "base seed; verdicts are deterministic per seed")
		workers    = flag.Int("workers", 0, "replicate-pool parallelism (<= 0: GOMAXPROCS; results are worker-independent)")
		replicates = flag.Int("replicates", 0, "override replicates per chain check (0: tier default)")
	)
	flag.Parse()
	if err := run(*tier, *out, *seed, *workers, *replicates, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

func run(tier, out string, seed uint64, workers, replicates int, w io.Writer) error {
	var reps int
	switch tier {
	case "quick":
		reps = 4000
	case "full":
		reps = 12000
	default:
		return fmt.Errorf("unknown tier %q (want quick or full)", tier)
	}
	if replicates > 0 {
		reps = replicates
	}
	pool := mc.NewPool(workers)
	defer pool.Close()
	opts := validate.Options{Pool: pool, Replicates: reps, Seed: seed}

	specs, controls := chainGrid(tier)
	var results, controlResults []validate.CheckResult
	results = append(results, validate.CertifyChainFamily(specs, opts)...)
	controlResults = validate.CertifyChainFamily(controls, validate.Options{
		Pool: pool, Replicates: reps, Seed: seed + 5000,
	})

	results = append(results, goldenChecks()...)

	// Topology contracts: every post-clique family in the topo registry is
	// resolved by name, rebuilt deterministically, and its CSR engine path
	// certified byte-for-byte against the generic interface path.
	results = append(results, validate.CertifyGraphContracts(
		validate.StandardGraphSpecs(), validate.Options{Pool: pool, Seed: seed + 8000})...)

	for i, spec := range validate.StandardMeanFieldSpecs() {
		mo := opts
		mo.Seed = seed + 9000 + uint64(i)
		results = append(results, validate.CheckMeanField(spec, mo))
	}
	po := opts
	po.Seed = seed + 9500
	results = append(results,
		validate.CheckConsensusWHP(validate.DefaultConsensusWHPSpec(), po),
		validate.CheckBiasMonotonicity(validate.DefaultBiasMonotonicitySpec(), po),
		validate.CheckMDScaling(validate.DefaultMDScalingSpec(), po),
	)

	var sink *json.Encoder
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = json.NewEncoder(f)
	}
	failures, controlEscapes := 0, 0
	emit := func(r validate.CheckResult, control bool) error {
		fmt.Fprintln(w, r)
		if sink != nil {
			line := struct {
				validate.CheckResult
				Control bool   `json:"control,omitempty"`
				Tier    string `json:"tier"`
			}{r, control, tier}
			if err := sink.Encode(line); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range results {
		if !r.Pass {
			failures++
		}
		if err := emit(r, false); err != nil {
			return err
		}
	}
	// Controls invert: a chi-square pass is a harness-power failure. The
	// KS companion of a control cell is informational (the chi-square
	// test carries the power requirement).
	for _, r := range controlResults {
		if r.Kind == "chain-chi2" && r.Pass {
			controlEscapes++
		}
		if err := emit(r, true); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "tier=%s checks=%d controls=%d failures=%d control-escapes=%d seed=%d replicates=%d\n",
		tier, len(results), len(controlResults), failures, controlEscapes, seed, reps)
	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	if controlEscapes > 0 {
		return fmt.Errorf("%d negative control(s) passed — the harness has lost statistical power", controlEscapes)
	}
	return nil
}

// chainGrid builds the tier's certification family and its negative
// controls: engines × rules × start configurations × horizons.
func chainGrid(tier string) (specs, controls []validate.ChainSpec) {
	specs = append(specs, validate.CliqueSpecs(colorcfg.FromCounts(3, 2, 1), 1)...)
	specs = append(specs, validate.CliqueSpecs(colorcfg.FromCounts(4, 3, 1), 3)...)
	specs = append(specs,
		validate.RuleSpec(dynamics.Median{}, colorcfg.FromCounts(3, 2, 2), 2),
		validate.RuleSpec(dynamics.Polling{}, colorcfg.FromCounts(4, 2), 2),
		validate.MarkovSpec(dynamics.TwoChoicesKeepOwn{}, colorcfg.FromCounts(4, 2, 2), 2),
	)
	controls = append(controls,
		validate.NegativeControlSpec(0.15, colorcfg.FromCounts(3, 2, 1), 1),
	)
	if tier == "full" {
		specs = append(specs, validate.CliqueSpecs(colorcfg.FromCounts(4, 4), 2)...)
		specs = append(specs, validate.CliqueSpecs(colorcfg.FromCounts(6, 4, 2), 4)...)
		specs = append(specs,
			validate.RuleSpec(dynamics.TwoChoices{}, colorcfg.FromCounts(3, 3, 1), 1),
			validate.RuleSpec(dynamics.ThreeMajority{UniformTie: true}, colorcfg.FromCounts(4, 3, 1), 2),
			validate.RuleSpec(dynamics.Median{}, colorcfg.FromCounts(5, 4, 3), 3),
		)
		controls = append(controls,
			validate.NegativeControlSpec(0.08, colorcfg.FromCounts(4, 3, 1), 3),
		)
	}
	return specs, controls
}

// goldenChecks verifies the committed golden traces byte for byte,
// reported through the same CheckResult stream. (The test suite owns
// regeneration via -update-golden; the CLI only verifies.)
func goldenChecks() []validate.CheckResult {
	var out []validate.CheckResult
	for _, spec := range validate.StandardGoldenSpecs() {
		res := validate.CheckResult{
			Name: "golden/" + spec.Name,
			Kind: "golden",
			Seed: spec.Seed,
			Pass: true,
		}
		got := validate.TraceBytes(spec)
		want, err := validate.GoldenBytes(spec.Name)
		switch {
		case err != nil:
			res.Pass = false
			res.Detail = "missing golden trace: " + err.Error()
		case string(got) != string(want):
			res.Pass = false
			res.Detail = "trace bytes diverged from committed golden"
		}
		out = append(out, res)
	}
	return out
}
