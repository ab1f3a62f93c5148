package obs_test

import (
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
)

func recordRun(t *testing.T, n int64, k int, s int64, seed uint64) []obs.RoundStats {
	t.Helper()
	rec := &obs.Recorder{}
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
	res := core.Run(e, core.Options{
		MaxRounds: 10000,
		Rand:      rng.New(seed),
		Observer:  rec,
	})
	if !res.WonInitialPlurality {
		t.Fatalf("trace run did not converge to plurality")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("run of %d rounds overflowed the ring", res.Rounds)
	}
	return rec.Rounds(nil)
}

func TestRecorderCapturesTrajectory(t *testing.T) {
	rounds := recordRun(t, 100000, 8, 7000, 1)
	if len(rounds) < 5 {
		t.Fatalf("too few rounds: %d", len(rounds))
	}
	first := rounds[0]
	if first.Round != 1 || first.CMax == 0 {
		t.Fatalf("bad first round: %+v", first)
	}
	last := rounds[len(rounds)-1]
	if last.CMax != 100000 || last.MinorityMass != 0 {
		t.Fatalf("final round not monochromatic: %+v", last)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round != rounds[i-1].Round+1 {
			t.Fatalf("round gap at %d", i)
		}
	}
}

func TestPhaseOf(t *testing.T) {
	n := int64(10000)
	cases := []struct {
		st   obs.RoundStats
		want obs.Phase
	}{
		{obs.RoundStats{CMax: 3000, MinorityMass: 7000}, obs.PhaseGrowth},
		{obs.RoundStats{CMax: 7000, MinorityMass: 3000}, obs.PhaseDecay},
		{obs.RoundStats{CMax: 9950, MinorityMass: 50}, obs.PhaseExtinction},
	}
	for _, c := range cases {
		if got := obs.PhaseOf(c.st, n, 0); got != c.want {
			t.Errorf("PhaseOf(%+v) = %v, want %v", c.st, got, c.want)
		}
	}
	// Explicit cut.
	if obs.PhaseOf(obs.RoundStats{CMax: 9400, MinorityMass: 600}, n, 700) != obs.PhaseExtinction {
		t.Error("explicit polylog cut ignored")
	}
}

func TestPhaseString(t *testing.T) {
	if obs.PhaseGrowth.String() != "growth" || obs.PhaseDecay.String() != "decay" ||
		obs.PhaseExtinction.String() != "extinction" {
		t.Error("phase names wrong")
	}
	if obs.Phase(42).String() == "" {
		t.Error("unknown phase renders empty")
	}
}

func TestSegmentsOrdered(t *testing.T) {
	segs := obs.Segments(recordRun(t, 100000, 8, 7000, 2))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	// Phases must appear in proof order: growth (maybe) then decay (maybe)
	// then extinction; no going back.
	lastPhase := obs.Phase(-1)
	for _, s := range segs {
		if s.Phase < lastPhase {
			t.Fatalf("phase regression: %v after %v", s.Phase, lastPhase)
		}
		lastPhase = s.Phase
		if s.Rounds() <= 0 {
			t.Fatalf("empty segment %+v", s)
		}
	}
	// The growth phase must actually grow the bias.
	if segs[0].Phase == obs.PhaseGrowth && segs[0].Rounds() > 2 && segs[0].GrowthRate <= 1 {
		t.Errorf("growth segment rate %v <= 1", segs[0].GrowthRate)
	}
	// Segment round ranges must tile the trajectory, which starts at the
	// first observed round.
	if segs[0].FromRound != 1 {
		t.Errorf("first segment starts at %d", segs[0].FromRound)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].FromRound != segs[i-1].ToRound+1 {
			t.Errorf("segment gap between %d and %d", segs[i-1].ToRound, segs[i].FromRound)
		}
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	rounds := recordRun(t, 50000, 4, 5000, 4)
	s := obs.PhaseSummary(rounds, 0)
	if !strings.Contains(s, "extinction") {
		t.Fatalf("summary missing extinction phase:\n%s", s)
	}
	if strings.Contains(s, "dropped") {
		t.Errorf("summary of a complete trajectory mentions dropped rounds:\n%s", s)
	}
	// A ring that overflowed says how many rounds the table misses.
	if s := obs.PhaseSummary(rounds[3:], 3); !strings.Contains(s, "(3 earlier rounds dropped from the ring)") {
		t.Errorf("summary of a wrapped ring does not count the dropped rounds:\n%s", s)
	}
}

func TestEmptyRecorder(t *testing.T) {
	rounds := (&obs.Recorder{}).Rounds(nil)
	if obs.Segments(rounds) != nil {
		t.Error("empty recorder must have no segments")
	}
	if obs.PhaseSummary(rounds, 0) != "" {
		t.Error("empty recorder summary must be empty")
	}
}
