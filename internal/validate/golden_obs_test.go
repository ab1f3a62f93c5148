package validate

import (
	"bytes"
	"os"
	"testing"

	"plurality/internal/obs"
)

// TestGoldenTracesObserved certifies the telemetry half of the
// zero-cost-when-off contract (DESIGN.md §13): attaching an observer to
// every engine leaves all 13 committed golden traces byte-identical,
// i.e. the observer consumed zero rng and perturbed nothing. It also
// checks the observer actually fired once per round — a regression that
// silently detached it would otherwise pass vacuously.
func TestGoldenTracesObserved(t *testing.T) {
	specs := StandardGoldenSpecs()
	if len(specs) != 13 {
		t.Fatalf("golden suite has %d specs, the observed-identity certification expects 13 — update this test alongside the suite", len(specs))
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			rec := &obs.Recorder{MemEvery: -1}
			got := TraceBytesObserved(spec, rec)
			if plain := TraceBytes(spec); !bytes.Equal(got, plain) {
				t.Errorf("observed trace diverged from unobserved run — the observer perturbed the sampling sequence.\n%s", traceDiff(plain, got))
			}
			want, err := os.ReadFile(goldenPath(spec.Name))
			if err != nil {
				t.Fatalf("missing golden trace: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("observed trace diverged from committed golden.\n%s", traceDiff(want, got))
			}
			if rec.Summarize().Rounds != spec.Rounds {
				t.Errorf("observer saw %d rounds, want %d", rec.Summarize().Rounds, spec.Rounds)
			}
			// The recorder's view must agree with the engine's: the last
			// observed round's counts sum to the colored population of the
			// final trace line.
			last := rec.At(rec.Len() - 1)
			if last.Round != spec.Rounds {
				t.Errorf("last observed round = %d, want %d", last.Round, spec.Rounds)
			}
			if last.CMax <= 0 || last.CMax > spec.Initial.N() {
				t.Errorf("implausible observed c_max %d (n=%d)", last.CMax, spec.Initial.N())
			}
		})
	}
}
