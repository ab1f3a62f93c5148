package expt

import (
	"slices"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T0",
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	text := tab.Text()
	for _, want := range []string{"T0", "demo", "a note", "333"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "333,4") {
		t.Errorf("CSV missing row: %q", csv)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 333 | 4 |") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tab := &Table{ID: "T", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestParallelRepsDeterministic(t *testing.T) {
	f := func(rep int, r *rng.Rand) float64 { return float64(rep) + r.Float64() }
	run := func(workers int) []float64 {
		return ParallelReps(Profile{Name: "t", N: 100, Reps: 8, Workers: workers}, 8, 42, f)
	}
	a := run(4)
	// Identical across runs, and independent of the worker count.
	for _, workers := range []int{4, 2, 1} {
		if b := run(workers); !slices.Equal(a, b) {
			t.Fatalf("%d workers: %v, 4 workers: %v", workers, b, a)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"}
	got := map[string]bool{}
	for _, e := range All() {
		got[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := ByID("E1"); !ok {
		t.Error("ByID(E1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// tinyProfile is small enough that the full experiment suite smoke-runs in
// seconds.
var tinyProfile = Profile{Name: "tiny", N: 2000, Reps: 3}

func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite skipped in -short")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := e.Run(tinyProfile, 1234)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tab.ID)
				}
				if tab.Text() == "" || tab.CSV() == "" {
					t.Errorf("%s table %s renders empty", e.ID, tab.ID)
				}
			}
		})
	}
}

// TestDoublingStopMatchesLoop pins the replicates that became one core.Run
// to the hand-written step loops they replaced: E5/E13's doubling loop,
// E11b's 10-round death loop and E17's run to a monochromatic state. Each
// pair must end at the same round with the same event and leave the
// generator in the same state, so the tables draw what they drew before.
func TestDoublingStopMatchesLoop(t *testing.T) {
	// The reference loops, as E5/E13, E11b and E17 wrote them, each next
	// to the core.Run that replaced it.
	doubleLoop := func(n int64, k, limit int) func(engine.Engine, *rng.Rand) (int, int) {
		return func(e engine.Engine, r *rng.Rand) (int, int) {
			target := 2 * n / int64(k)
			rounds := 0
			for rounds < limit {
				if first, _ := e.Config().TopTwo(); first >= target {
					break
				}
				e.Step(r)
				rounds++
			}
			return rounds, 0
		}
	}
	doubleRun := func(n int64, k, limit int) func(engine.Engine, *rng.Rand) (int, int) {
		return func(e engine.Engine, r *rng.Rand) (int, int) {
			res := core.Run(e, core.Options{MaxRounds: limit, Rand: r, Stop: whenLeaderDoubles(n, k)})
			return res.Rounds, 0
		}
	}
	deathLoop := func(e engine.Engine, r *rng.Rand) (int, int) {
		for i := 0; i < 10; i++ {
			e.Step(r)
			if e.Config()[0] == 0 {
				return i + 1, 1
			}
		}
		return 10, 0
	}
	deathRun := func(e engine.Engine, r *rng.Rand) (int, int) {
		res := core.Run(e, core.Options{MaxRounds: 10, Rand: r, Stop: core.WhenColorDead(0)})
		if res.Stopped {
			return res.Rounds, 1
		}
		return res.Rounds, 0
	}
	deathStart := func() colorcfg.Config {
		c := colorcfg.Balanced(2000, 1000)
		c[0]++
		c[999]--
		return c
	}
	monoLoop := func(e engine.Engine, r *rng.Rand) (int, int) {
		rounds := 0
		for !e.Config().IsMonochromatic() {
			e.Step(r)
			rounds++
		}
		return rounds, int(e.Config().Plurality())
	}
	monoRun := func(e engine.Engine, r *rng.Rand) (int, int) {
		res := core.Run(e, core.Options{Rand: r})
		return res.Rounds, int(res.Winner)
	}
	small := colorcfg.FromCounts(7, 5, 3)
	cases := []struct {
		name      string
		mk        func(seed uint64) engine.Engine
		loop, run func(engine.Engine, *rng.Rand) (rounds, event int)
	}{
		{"double/multinomial/3majority", func(uint64) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Balanced(4000, 16))
		}, doubleLoop(4000, 16, 200_000), doubleRun(4000, 16, 200_000)},
		{"double/sampled/hplurality:5", func(seed uint64) engine.Engine {
			return engine.NewCliqueSampled(dynamics.NewHPlurality(5), colorcfg.Balanced(4000, 16), 1, seed)
		}, doubleLoop(4000, 16, 100_000), doubleRun(4000, 16, 100_000)},
		// At n=64 the leader moves a few agents a round, so runs land one
		// short of the target and an off-by-one stop shows.
		{"double/multinomial/3majority/n=64", func(uint64) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Balanced(64, 16))
		}, doubleLoop(64, 16, 200_000), doubleRun(64, 16, 200_000)},
		{"death/undecided", func(uint64) engine.Engine {
			return engine.NewUndecidedExact(deathStart())
		}, deathLoop, deathRun},
		{"death/multinomial/3majority", func(uint64) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, deathStart())
		}, deathLoop, deathRun},
		{"monochromatic/multinomial/3majority", func(uint64) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, small)
		}, monoLoop, monoRun},
		{"monochromatic/multinomial/polling", func(uint64) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.Polling{}, small)
		}, monoLoop, monoRun},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				e1, r1 := c.mk(seed), rng.New(seed)
				wantRounds, wantEvent := c.loop(e1, r1)
				e1.Close()
				e2, r2 := c.mk(seed), rng.New(seed)
				gotRounds, gotEvent := c.run(e2, r2)
				e2.Close()
				if gotRounds != wantRounds || gotEvent != wantEvent {
					t.Fatalf("seed %d: core.Run ends at round %d with event %d, the loop at round %d with event %d",
						seed, gotRounds, gotEvent, wantRounds, wantEvent)
				}
				if got, want := r2.Uint64(), r1.Uint64(); got != want {
					t.Fatalf("seed %d: generators diverge after the run: next draw %d, want %d", seed, got, want)
				}
			}
		})
	}
}
