package service

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"plurality/internal/mc"
)

// validSpec is a small, fully-defaulted spec used as the mutation base.
func validSpec() JobSpec {
	s := JobSpec{N: 10_000, K: 4, Seed: 7, Replicates: 3, MaxRounds: 2000}
	s.Normalize()
	return s
}

func TestNormalizeDefaults(t *testing.T) {
	var s JobSpec
	s.Normalize()
	want := JobSpec{Rule: "3majority", Engine: "auto", Graph: "complete",
		Bias: "auto", Replicates: 1, MaxRounds: DefaultMaxRounds, Sampler: "default"}
	if s != want {
		t.Fatalf("Normalize zero spec = %+v, want %+v", s, want)
	}
	s.Normalize()
	if s != want {
		t.Fatal("Normalize is not idempotent")
	}
}

func TestValidateAcceptsEveryEngine(t *testing.T) {
	cases := []func(*JobSpec){
		func(s *JobSpec) {}, // auto → multinomial
		func(s *JobSpec) { s.Engine = "sampled" },
		func(s *JobSpec) { s.Engine = "population" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "cycle" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "torus"; s.N = 10_000 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:4" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "gnp:0.001"; s.N = 2000 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "smallworld:6:0.1" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "ba:3" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "sbm:4:0.01:0.001" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "barbell:4" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "hypercube"; s.N = 8192 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "torus:3"; s.N = 27_000 },
		func(s *JobSpec) { s.Rule = "hplurality:5" }, // auto → sampled
		func(s *JobSpec) { s.Rule = "hplurality:64" },
		func(s *JobSpec) { s.Rule = "median" },
		func(s *JobSpec) { s.Rule = "undecided" },
		func(s *JobSpec) { s.Rule = "2choices-keepown" },
		func(s *JobSpec) { s.Bias = "123" },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:6"; s.Sampler = "batch" },
		func(s *JobSpec) { s.Sampler = "default" },
	}
	for i, mutate := range cases {
		s := validSpec()
		mutate(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("case %d (%+v): unexpected error %v", i, s, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mutate func(*JobSpec)
		want   string // substring of the error
	}{
		{func(s *JobSpec) { s.N = 0 }, "n must be"},
		{func(s *JobSpec) { s.K = 1 }, "k must be"},
		{func(s *JobSpec) { s.K = MaxK + 1 }, "k must be"},
		{func(s *JobSpec) { s.N = 3; s.K = 4 }, "exceeds n"},
		{func(s *JobSpec) { s.Replicates = MaxReplicates + 1 }, "replicates"},
		{func(s *JobSpec) { s.MaxRounds = MaxMaxRounds + 1 }, "max_rounds"},
		{func(s *JobSpec) { s.Rule = "gossip" }, "unknown rule"},
		{func(s *JobSpec) { s.Rule = "hplurality:0" }, "bad h"},
		{func(s *JobSpec) { s.Rule = "hplurality:65" }, "h = 65"},
		{func(s *JobSpec) { s.Engine = "warp" }, "unknown engine"},
		{func(s *JobSpec) { s.Rule = "hplurality:3"; s.Engine = "multinomial" }, "closed-form"},
		{func(s *JobSpec) { s.Rule = "undecided"; s.Engine = "sampled" }, "its own engine"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "moebius" }, "unknown graph"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "torus"; s.N = 10 }, "side"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:0" }, "outside"},
		{func(s *JobSpec) { s.N = 5; s.K = 2; s.Engine = "graph"; s.Graph = "regular:5" }, "degree < n"},
		{func(s *JobSpec) { s.N = 5; s.K = 2; s.Engine = "graph"; s.Graph = "regular:3" }, "even"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "gnp:1.5" }, "outside"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "smallworld:3:0.1" }, "even"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "sbm:2:0.1" }, "three parameters"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "hypercube"; s.N = 1000 }, "power of two"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "ba:4"; s.N = 4 }, "M+1"},
		// The adjacency-entry cap holds even under the raised n ceiling.
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:100"; s.N = MaxNGraph }, "cap"},
		{func(s *JobSpec) { s.Bias = "-1" }, "bias"},
		{func(s *JobSpec) { s.Bias = "1000000000" }, "bias"},
		{func(s *JobSpec) { s.Bias = "lots" }, "bad bias"},
		{func(s *JobSpec) { s.N = MaxNExact + 1 }, "cap"},
		{func(s *JobSpec) { s.Engine = "sampled"; s.N = MaxNSampled + 1 }, "cap"},
		{func(s *JobSpec) { s.Engine = "population"; s.N = MaxNSampled + 1 }, "cap"},
		// Materialized families keep the RAM-bounded cap; implicit families
		// (complete here) get the raised one but still have a ceiling.
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:8"; s.N = MaxNGraph + 4 }, "graph engine needs n"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "complete"; s.N = MaxNGraphImplicit + 4 }, "graph engine needs n"},
		// A hostile torus n must be rejected in constant time, not by a
		// √n-iteration side search or wrapping int64 arithmetic.
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "torus"; s.N = 1<<63 - 1 }, "graph engine needs n"},
		{func(s *JobSpec) { s.Sampler = "turbo" }, "unknown sampler"},
		// The relaxed sampler is a graph-engine notion; mean-field engines
		// must refuse it rather than silently run the default discipline.
		{func(s *JobSpec) { s.Sampler = "batch" }, "graph engine"},
		{func(s *JobSpec) { s.Engine = "sampled"; s.Sampler = "batch" }, "graph engine"},
	}
	for i, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d (%+v): Validate accepted an invalid spec", i, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

// TestCheckSkipsOnlyTheCaps pins the CLI-side check: it accepts a spec
// that only a service cap rejects, and still rejects a spec below a
// field's floor, naming the floor alone.
func TestCheckSkipsOnlyTheCaps(t *testing.T) {
	overCap := []func(*JobSpec){
		func(s *JobSpec) { s.K = MaxK + 1 },
		func(s *JobSpec) { s.Replicates = MaxReplicates + 1 },
		func(s *JobSpec) { s.MaxRounds = MaxMaxRounds + 1 },
		func(s *JobSpec) { s.Rule = "hplurality:65" },
		func(s *JobSpec) { s.N = MaxNExact + 1 },
		func(s *JobSpec) { s.Engine = "sampled"; s.N = MaxNSampled + 1 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "regular:8"; s.N = MaxNGraph + 8 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "complete"; s.N = MaxNGraphImplicit + 4 },
	}
	for i, mutate := range overCap {
		s := validSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d (%+v): Validate accepted a spec over a cap", i, s)
		}
		if err := s.Check(); err != nil {
			t.Errorf("case %d (%+v): Check rejected a spec only a cap rejects: %v", i, s, err)
		}
	}
	belowFloor := []struct {
		mutate func(*JobSpec)
		want   string
	}{
		{func(s *JobSpec) { s.K = 1 }, "k must be >= 2, got 1"},
		{func(s *JobSpec) { s.Replicates = 0 }, "replicates must be >= 1, got 0"},
		{func(s *JobSpec) { s.MaxRounds = -1 }, "max_rounds must be >= 1, got -1"},
		{func(s *JobSpec) { s.N = 0 }, "n must be >= 1, got 0"},
		{func(s *JobSpec) { s.Engine = "graph"; s.Graph = "torus"; s.N = 1<<63 - 1 }, "side"},
	}
	for i, tc := range belowFloor {
		s := validSpec()
		tc.mutate(&s)
		if err := s.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Check error = %v, want %q", i, err, tc.want)
		}
	}
}

func TestValidateReportsAllProblems(t *testing.T) {
	s := validSpec()
	s.K = 1
	s.Replicates = -2
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted a doubly-invalid spec")
	}
	if !strings.Contains(err.Error(), "k must be") || !strings.Contains(err.Error(), "replicates") {
		t.Fatalf("error %q does not report both problems", err)
	}
}

func TestNameCoversDistinguishingFields(t *testing.T) {
	base := validSpec()
	mutations := []func(*JobSpec){
		func(s *JobSpec) { s.Rule = "median" },
		func(s *JobSpec) { s.Engine = "sampled" },
		func(s *JobSpec) { s.N = 20_000 },
		func(s *JobSpec) { s.K = 8 },
		func(s *JobSpec) { s.Bias = "42" },
		func(s *JobSpec) { s.Seed = 8 },
		func(s *JobSpec) { s.MaxRounds = 99 },
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "cycle" },
		// Same topology, different generator seed → different quenched
		// graph → must be a different job identity.
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "cycle"; s.GraphSeed = 99; s.Normalize() },
		// The relaxed sampler changes the replicate streams, so it must be
		// part of the job identity.
		func(s *JobSpec) { s.Engine = "graph"; s.Graph = "cycle"; s.Sampler = "batch" },
	}
	seen := map[string]bool{base.Name(): true}
	for i, mutate := range mutations {
		s := base
		mutate(&s)
		name := s.Name()
		if seen[name] {
			t.Errorf("mutation %d does not change Name() = %q", i, name)
		}
		seen[name] = true
	}
}

func TestCostScalesWithEngineClass(t *testing.T) {
	exact := validSpec() // multinomial: O(k) per round
	if got, want := exact.Cost(), int64(exact.Replicates)*int64(exact.MaxRounds)*int64(exact.K); got != want {
		t.Fatalf("multinomial Cost = %d, want %d", got, want)
	}
	sampled := validSpec()
	sampled.Engine = "sampled"
	if got, want := sampled.Cost(), int64(sampled.Replicates)*int64(sampled.MaxRounds)*sampled.N; got != want {
		t.Fatalf("sampled Cost = %d, want %d", got, want)
	}
	// A spec whose exact product overflows int64 must saturate, not wrap
	// negative (a negative cost would route it onto the sync path).
	huge := validSpec()
	huge.Engine = "sampled"
	huge.N = MaxNSampled
	huge.Replicates = MaxReplicates
	huge.MaxRounds = MaxMaxRounds
	if err := huge.Validate(); err != nil {
		t.Fatalf("capped-per-field spec should validate: %v", err)
	}
	if got := huge.Cost(); got != math.MaxInt64 {
		t.Fatalf("overflowing Cost = %d, want saturation at MaxInt64", got)
	}
}

// TestMCJobDeterministicAcrossWorkers is the service half of the mc
// determinism contract: the compiled job's records depend only on the
// spec, not on pool parallelism.
func TestMCJobDeterministicAcrossWorkers(t *testing.T) {
	for _, engine := range []string{"auto", "sampled"} {
		s := validSpec()
		s.Engine = engine
		s.N = 5000
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		var want []mc.Record
		for _, workers := range []int{1, 4} {
			p := mc.NewPool(workers)
			recs, err := p.Run(context.Background(), s.MCJob(), mc.RunOpts{})
			p.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = recs
				continue
			}
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("engine %s: records differ between 1 and %d workers", engine, workers)
			}
		}
		if len(want) != s.Replicates {
			t.Fatalf("got %d records, want %d", len(want), s.Replicates)
		}
	}
}
