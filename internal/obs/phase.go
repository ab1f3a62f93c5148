package obs

import (
	"fmt"
	"strings"
)

// Phase identifies one of the three phases of the paper's Theorem 1
// proof.
type Phase int

const (
	// PhaseGrowth: c1 < 2n/3 — Lemma 3's multiplicative bias growth.
	PhaseGrowth Phase = iota
	// PhaseDecay: 2n/3 <= c1 < n - polylog — Lemma 4's geometric decay of
	// the minority mass.
	PhaseDecay
	// PhaseExtinction: c1 >= n - polylog — Lemma 5's last step.
	PhaseExtinction
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseGrowth:
		return "growth"
	case PhaseDecay:
		return "decay"
	case PhaseExtinction:
		return "extinction"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// PhaseOf classifies a round of a population of n agents given the
// extinction threshold (pass <= 0 for the paper's log²n-flavored default
// of minority mass <= polylogCut, with polylogCut = max(100, n/1000)).
func PhaseOf(st RoundStats, n int64, polylogCut int64) Phase {
	if polylogCut <= 0 {
		polylogCut = max(100, n/1000)
	}
	switch {
	case st.MinorityMass <= polylogCut:
		return PhaseExtinction
	case st.CMax >= 2*n/3:
		return PhaseDecay
	default:
		return PhaseGrowth
	}
}

// Segment is a maximal run of consecutive rounds in the same phase.
type Segment struct {
	Phase      Phase
	FromRound  int
	ToRound    int // inclusive
	FromCMax   int64
	ToCMax     int64
	GrowthRate float64 // mean per-round bias growth factor within the segment
}

// Rounds returns the segment length in rounds.
func (s Segment) Rounds() int { return s.ToRound - s.FromRound + 1 }

// Segments splits consecutive rounds (a Recorder's retained rounds, or a
// parsed Trace's) into phase segments and estimates the per-round bias
// growth factor within each. The population size is read off the rounds
// themselves: n = CMax + MinorityMass.
func Segments(rounds []RoundStats) []Segment {
	if len(rounds) == 0 {
		return nil
	}
	first := rounds[0]
	n := first.CMax + first.MinorityMass
	var out []Segment
	cur := Segment{
		Phase:     PhaseOf(first, n, 0),
		FromRound: first.Round,
		ToRound:   first.Round,
		FromCMax:  first.CMax,
		ToCMax:    first.CMax,
	}
	growthSum, growthCnt := 0.0, 0
	flush := func() {
		if growthCnt > 0 {
			cur.GrowthRate = growthSum / float64(growthCnt)
		}
		out = append(out, cur)
	}
	for i := 1; i < len(rounds); i++ {
		st := rounds[i]
		if ph := PhaseOf(st, n, 0); ph != cur.Phase {
			flush()
			cur = Segment{Phase: ph, FromRound: st.Round, FromCMax: st.CMax}
			growthSum, growthCnt = 0, 0
		}
		if prev := rounds[i-1]; prev.Bias > 0 {
			growthSum += float64(st.Bias) / float64(prev.Bias)
			growthCnt++
		}
		cur.ToRound = st.Round
		cur.ToCMax = st.CMax
	}
	flush()
	return out
}

// PhaseSummary renders the phase table of a run's retained rounds: a
// title, one line per segment, and a note counting the dropped earlier
// rounds when the recorder's ring overflowed. It is empty when no round
// was retained. cmd/plurality -phases and cmd/tracereport print it.
func PhaseSummary(rounds []RoundStats, dropped int) string {
	segs := Segments(rounds)
	if segs == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("phase segmentation (Lemmas 3/4/5):\n")
	for _, s := range segs {
		fmt.Fprintf(&b, "%-10s rounds %d..%d (%d)  c_max %d → %d  bias growth ×%.3f/round\n",
			s.Phase, s.FromRound, s.ToRound, s.Rounds(), s.FromCMax, s.ToCMax, s.GrowthRate)
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier rounds dropped from the ring)\n", dropped)
	}
	return b.String()
}
