// Package validate is the statistical cross-validation harness that
// certifies the fast simulation engines against the repository's two
// ground-truth models:
//
//   - the exact configuration Markov chain (internal/exact): an engine's
//     empirical T-round state distribution is chi-square- and KS-tested
//     against e_start·Pᵀ, with Bonferroni-controlled family-wise error
//     across the engine × config × horizon family (CertifyChainFamily);
//   - the mean-field recursion (internal/meanfield): large-n trajectories
//     must track the ODE limit within explicit tolerance bands
//     (CheckMeanField).
//
// On top of the distributional certification the harness asserts
// paper-level properties (CheckConsensusWHP, CheckBiasMonotonicity,
// CheckMDScaling): consensus lands on the plurality color w.h.p. under
// sufficient initial bias, success probability is monotone in the bias,
// and undecided-state convergence times scale with the monochromatic
// distance.
//
// Every check is deterministic for a fixed seed (replicate seeds are
// pre-derived via internal/mc, so results are independent of worker
// count), reports explicit power accounting (MinDetectableTV: the
// total-variation deviation the chi-square test would reliably flag at
// the chosen replicate budget), and is exercised against a deliberately
// mis-sampling engine (BiasedMutant) as a negative control — a harness
// that cannot fail a broken engine certifies nothing.
//
// Golden-trace regression (golden.go) complements the statistical tier:
// canonical seeded runs are committed under testdata/golden/ and any
// engine change that alters sampling order or distribution — even one
// too subtle for the statistical tests — fails the byte comparison.
//
// The cmd/validate CLI runs the same families as a grid and emits a
// JSONL report; CI runs the quick tier on every PR and the full tier on
// a schedule (DESIGN.md §7).
package validate

import (
	"context"
	"fmt"
	"math"

	"plurality/internal/mc"
)

// CheckResult is the outcome of one statistical check. cmd/validate
// serializes it (plus control/tier tags) as one line of the JSONL
// validation report.
type CheckResult struct {
	// Name identifies the check: kind/engine/config/horizon.
	Name string `json:"name"`
	// Kind is the check family: chain-chi2, chain-ks, meanfield, property.
	Kind string `json:"kind"`
	// Stat is the test statistic (χ², KS D, max deviation, or margin).
	Stat float64 `json:"stat"`
	// Critical is the rejection threshold for Stat: the check passes
	// while Stat <= Critical.
	Critical float64 `json:"critical"`
	// DF is the chi-square degrees of freedom (chain-chi2 only).
	DF int `json:"df,omitempty"`
	// Alpha is the per-test significance level after the Bonferroni
	// correction (familyAlpha / family size).
	Alpha float64 `json:"alpha,omitempty"`
	// TV is the empirical total-variation distance between the engine's
	// state histogram and the exact distribution (chain checks only).
	TV float64 `json:"tv,omitempty"`
	// MinDetectableTV is the power accounting: a true sampling deviation
	// of at least this TV magnitude would be expected to fail the
	// chi-square check at the configured replicate budget.
	MinDetectableTV float64 `json:"min_detectable_tv,omitempty"`
	// Replicates is the number of independent engine runs consumed.
	Replicates int `json:"replicates,omitempty"`
	// Seed is the base seed the check derived its replicate seeds from.
	Seed uint64 `json:"seed"`
	// Pass reports whether the check passed.
	Pass bool `json:"pass"`
	// Detail carries a human-readable diagnosis on failure (or context).
	Detail string `json:"detail,omitempty"`
}

// String renders a one-line report entry.
func (r CheckResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	s := fmt.Sprintf("%s %-10s %-52s stat=%.4g crit=%.4g", status, r.Kind, r.Name, r.Stat, r.Critical)
	if r.TV > 0 {
		s += fmt.Sprintf(" tv=%.4f", r.TV)
	}
	if r.Detail != "" && !r.Pass {
		s += "  // " + r.Detail
	}
	return s
}

// Options tunes a family run.
type Options struct {
	// Pool executes replicate fan-out; nil uses the process-shared pool
	// at default parallelism. Results are independent of the pool's
	// worker count (replicate seeds are pre-derived).
	Pool *mc.Pool
	// Replicates is the number of independent engine runs per chain
	// check (default 4000).
	Replicates int
	// Seed is the base seed; check i of a family derives its replicate
	// seeds from Seed+i. Fixed seeds make every verdict deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Pool == nil {
		o.Pool = mc.Shared(0)
	}
	if o.Replicates <= 0 {
		o.Replicates = 4000
	}
	return o
}

// minDetectableTV estimates the total-variation deviation that the
// chi-square test would reliably detect with R replicates: a deviation
// of TV ε spread over the occupied bins has noncentrality ≈ 4Rε²
// (Σ Δp²/p with |Δp_b| ~ 2ε/b and p_b ~ 1/b), and detection needs the
// noncentrality to reach the critical value — solve for ε. A coarse but
// honest power figure; it is reported, never used as a gate.
func minDetectableTV(crit float64, reps int) float64 {
	if reps <= 0 {
		return 0
	}
	return math.Sqrt(crit / (4 * float64(reps)))
}

// ctx is the package-wide context for pool dispatch: validation checks
// are not cancellable mid-check (they are short); cmd/validate handles
// interrupts between checks.
var ctx = context.Background()
