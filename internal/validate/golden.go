package validate

import (
	"bytes"
	"embed"
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// goldenFS embeds the committed traces, and the frozen graphs some of
// them run on, so consumers outside the package directory (cmd/validate)
// can verify them from any working directory.
//
//go:embed testdata/golden
var goldenFS embed.FS

// GoldenBytes returns the committed golden trace for a spec name (as of
// build time; the test suite's -update-golden flag rewrites the source
// files, which are re-embedded on the next build).
func GoldenBytes(name string) ([]byte, error) {
	return goldenFS.ReadFile("testdata/golden/" + name + ".golden")
}

// goldenGraph reads the topology frozen for a golden spec, committed as
// testdata/golden/<name>.csr in the topoCSR1 format. The rows are kept in
// the order the graph's original generator produced (never sorted), because
// draw i of a vertex maps to the i-th entry of its row.
func goldenGraph(name string) *topo.CSR {
	data, err := goldenFS.ReadFile("testdata/golden/" + name + ".csr")
	if err != nil {
		panic(fmt.Sprintf("golden graph %s: %v", name, err))
	}
	g, err := topo.ReadCSR(bytes.NewReader(data))
	if err != nil {
		panic(fmt.Sprintf("golden graph %s: %v", name, err))
	}
	return g
}

// GoldenSpec is one canonical seeded run whose full per-round count
// trajectory is committed under testdata/golden/. The statistical tier
// catches distributional drift; goldens catch *any* change to the
// sampling sequence — a reordered draw, a different block size on a
// changed code path, a block seeded from the wrong key — even when the
// new law is statistically identical. Engine worker counts are fixed by
// each spec (never derived from the host), but do not enter the bytes:
// the agent-level engines draw per block, not per worker, so the names
// carry no worker count.
type GoldenSpec struct {
	// Name is the trace identity; the file is testdata/golden/<Name>.golden.
	Name string
	// NewEngine builds the engine; all randomness derives from r.
	NewEngine EngineFactory
	// Initial is the start configuration.
	Initial colorcfg.Config
	// Rounds is the number of recorded rounds (plus round 0).
	Rounds int
	// Seed drives the run.
	Seed uint64
}

// StandardGoldenSpecs covers every engine family and the rule zoo's
// representative members: the closed-form multinomial engine, the
// agent-sampling engine, the graph engine on the clique fast path /
// literal path / a random-regular topology, the Markov engine, and the
// undecided-state engines.
func StandardGoldenSpecs() []GoldenSpec {
	return []GoldenSpec{
		{
			Name: "multinomial-3majority-n120-k4",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			},
			Initial: colorcfg.Biased(120, 4, 24), Rounds: 25, Seed: 1001,
		},
		{
			Name: "multinomial-median-n100-k5",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMultinomial(dynamics.Median{}, init)
			},
			Initial: colorcfg.Biased(100, 5, 10), Rounds: 20, Seed: 1002,
		},
		{
			Name: "sampled-3majority-n80-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, r.Uint64())
			},
			Initial: colorcfg.Biased(80, 3, 16), Rounds: 18, Seed: 1003,
		},
		{
			Name: "sampled-hplurality5-n60-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.NewHPlurality(5), init, 2, r.Uint64())
			},
			Initial: colorcfg.Biased(60, 3, 12), Rounds: 15, Seed: 1004,
		},
		{
			Name: "graph-complete-3majority-n64-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					topo.NewComplete(init.N()), init, 2, r.Uint64(), nil)
			},
			Initial: colorcfg.Biased(64, 3, 12), Rounds: 15, Seed: 1005,
		},
		{
			Name: "graph-literal-3majority-n48-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					opaqueGraph{topo.NewComplete(init.N())}, init, 1, r.Uint64(), nil)
			},
			Initial: colorcfg.Biased(48, 3, 9), Rounds: 12, Seed: 1006,
		},
		{
			// The random 8-regular graph is frozen in testdata (see
			// goldenGraph). The draw that once seeded its generator is kept,
			// so the engine seed drawn after it is unchanged.
			Name: "graph-regular8-3majority-n64-k4",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				layout := rng.New(r.Uint64())
				r.Uint64() // graph seed
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					goldenGraph("graph-regular8-3majority-n64-k4"), init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(64, 4, 16), Rounds: 15, Seed: 1007,
		},
		{
			Name: "graph-smallworld-3majority-n64-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				g, err := topo.BuildSource("smallworld:6:0.2", init.N(), rng.New(r.Uint64()), topo.BuildOpts{})
				if err != nil {
					panic(fmt.Sprintf("golden smallworld build: %v", err))
				}
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngine(dynamics.ThreeMajority{}, g, init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(64, 3, 12), Rounds: 15, Seed: 1011,
		},
		{
			// The implicit-backend golden: the torus is sampled functionally
			// (the family default, nothing materialized), pinning the
			// NeighborSource rng contract for the zero-memory path. The
			// backend-identity certification (CheckGraphContract) proves the
			// CSR and mmap backends reproduce these same bytes.
			Name: "graph-torus-implicit-3majority-n512-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				g, err := topo.BuildSource("torus:3", init.N(), nil, topo.BuildOpts{})
				if err != nil {
					panic(fmt.Sprintf("golden implicit torus build: %v", err))
				}
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngine(dynamics.ThreeMajority{}, g, init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(512, 3, 96), Rounds: 15, Seed: 1012,
		},
		{
			// The rand-consuming golden: the uniform-tie rule draws from the
			// block's rule stream during Apply, so any change to block
			// sizing or to how a block's neighbor draws and rule draws are
			// split between its two streams moves these bytes even when the
			// per-draw law is unchanged. Degree 6 is not a power of two, so
			// Lemire's rejection threshold is nonzero. The graph is frozen
			// like the 8-regular one above.
			Name: "graph-regular6-3majorityutie-n64-k4",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				layout := rng.New(r.Uint64())
				r.Uint64() // graph seed
				return engine.NewGraphEngine(dynamics.ThreeMajority{UniformTie: true},
					goldenGraph("graph-regular6-3majorityutie-n64-k4"), init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(64, 4, 16), Rounds: 15, Seed: 1013,
		},
		{
			Name: "markov-2choiceskeepown-n90-k3",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
			},
			Initial: colorcfg.Biased(90, 3, 30), Rounds: 20, Seed: 1008,
		},
		{
			Name: "undecided-exact-n100-k4",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewUndecidedExact(init)
			},
			Initial: colorcfg.Biased(100, 4, 25), Rounds: 20, Seed: 1009,
		},
		{
			Name: "undecided-population-n80-k3",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewUndecidedPopulation(init)
			},
			Initial: colorcfg.Biased(80, 3, 20), Rounds: 15, Seed: 1010,
		},
	}
}

// TraceBytes executes the spec and renders the canonical byte form:
// a header line followed by one tab-separated line per round (round 0 is
// the initial configuration) listing the color counts. The bytes are a
// pure function of the spec.
func TraceBytes(spec GoldenSpec) []byte {
	return traceBytes(spec, nil)
}

// TraceBytesObserved is TraceBytes with o attached to the engine for the
// whole run. Because observers are handed no rng (obs.Observer's
// contract), the returned bytes must equal TraceBytes(spec) for every
// spec — the certification the golden suite runs over all committed
// traces to pin the zero-cost-when-off telemetry contract.
func TraceBytesObserved(spec GoldenSpec, o obs.Observer) []byte {
	return traceBytes(spec, o)
}

func traceBytes(spec GoldenSpec, o obs.Observer) []byte {
	r := rng.New(spec.Seed)
	e := spec.NewEngine(spec.Initial.Clone(), r)
	defer e.Close()
	if o != nil {
		engine.Observe(e, o)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# golden %s n=%d k=%d seed=%d rounds=%d\n",
		spec.Name, spec.Initial.N(), spec.Initial.K(), spec.Seed, spec.Rounds)
	writeRound := func(round int, c colorcfg.Config) {
		fmt.Fprintf(&b, "%d", round)
		for _, v := range c {
			fmt.Fprintf(&b, "\t%d", v)
		}
		b.WriteByte('\n')
	}
	writeRound(0, e.Config())
	for t := 1; t <= spec.Rounds; t++ {
		e.Step(r)
		writeRound(t, e.Config())
	}
	return b.Bytes()
}
