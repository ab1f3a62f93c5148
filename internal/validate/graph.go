package validate

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// GraphContractSpec is one topology-contract certification: a registry
// spec resolved through internal/topo, exercised end to end against the
// invariants the CSR port must preserve.
type GraphContractSpec struct {
	// Spec is the topo registry spec ("smallworld:6:0.1", ...).
	Spec string
	// N is the vertex count.
	N int64
	// K and Bias shape the initial configuration Biased(N, K, Bias).
	K    int
	Bias int64
	// Rounds is the number of synchronous 3-majority rounds executed.
	Rounds int
	// Seed drives both the generator and the run.
	Seed uint64
}

// contractWorkers are the engine worker counts CheckGraphContract gives
// its backends, one each in backend order, so the byte-equality check
// also certifies that a run does not depend on its worker count.
var contractWorkers = []int{1, 2, 3, 5, 8}

// StandardGraphSpecs covers the registry's generator families plus every
// implicit uniform-degree family (hypercube, square torus, 3-torus,
// cycle) and the star, whose hub and degree-1 leaves the engine draws for
// by one rule on every backend, at sizes the quick tier affords. The
// square torus is 24², so its second 341-agent block starts mid-row.
func StandardGraphSpecs() []GraphContractSpec {
	mk := func(spec string, n int64) GraphContractSpec {
		return GraphContractSpec{Spec: spec, N: n, K: 3, Bias: n / 6, Rounds: 8, Seed: 7101}
	}
	return []GraphContractSpec{
		mk("smallworld:6:0.1", 600),
		mk("ba:3", 600),
		mk("sbm:3:0.05:0.005", 600),
		mk("hypercube", 512),
		mk("torus:3", 512), // 8×8×8
		mk("torus", 576),   // 24×24
		mk("cycle", 600),
		mk("star", 600),
		mk("barbell:4", 600),
		mk("regular:8", 600),
		mk("gnp:0.02", 600),
	}
}

// CheckGraphContract certifies one topology spec: the registry resolves
// and rebuilds it reproducibly (byte-identical CSR per seed), the built
// structure satisfies the handshake invariant, and every backend of the
// same (spec, n, seed) — the family default, the opaque interface path,
// the in-RAM CSR, the implicit functional graph where the family
// has one, and the mmap-backed CSR round-tripped through a real file —
// yields byte-identical per-round configurations AND per-vertex colors
// (the representation-independence contract: on every backend the engine
// draws one Int63n(degree) per sample from its block's neighbor stream
// and resolves it through the backend's Neighbor). Each
// backend runs at its own worker count (contractWorkers), so the same
// check certifies worker-count invariance. Conservation (Σc = n) is
// checked every round.
func CheckGraphContract(spec GraphContractSpec, opts Options) CheckResult {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = spec.Seed
	}
	res := CheckResult{
		Name: fmt.Sprintf("graph-contract/%s/n=%d", spec.Spec, spec.N),
		Kind: "graph-contract",
		Seed: seed,
		Pass: true,
	}
	fail := func(format string, args ...any) CheckResult {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
		return res
	}

	g, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{})
	if err != nil {
		return fail("build: %v", err)
	}
	if g.N() != spec.N {
		return fail("built %d vertices, want %d", g.N(), spec.N)
	}
	canon, err := topo.Canonical(spec.Spec, spec.N)
	if err != nil {
		return fail("canonical: %v", err)
	}
	// csr2 is the in-RAM CSR backend: a generator family's rebuild from
	// the same seed, or an implicit family's materialization.
	var csr2 *topo.CSR
	if csr, isCSR := g.(*topo.CSR); isCSR {
		// Generator determinism: the registry must reproduce the graph
		// byte for byte from the same seed.
		g2, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{})
		if err != nil {
			return fail("rebuild: %v", err)
		}
		csr2 = g2.(*topo.CSR)
		if !slices.Equal(csr.Offsets, csr2.Offsets) || !slices.Equal(csr.Neighbors, csr2.Neighbors) {
			return fail("generator not byte-deterministic for seed %d", seed)
		}
		// Handshake: every undirected edge contributes exactly two
		// adjacency entries.
		var degreeSum int64
		for v := int64(0); v < csr.N(); v++ {
			degreeSum += csr.Degree(v)
		}
		if degreeSum != int64(len(csr.Neighbors)) || degreeSum != 2*csr.Edges() {
			return fail("handshake violated: Σdeg=%d, entries=%d", degreeSum, len(csr.Neighbors))
		}
	} else if csr2, err = topo.MaterializeCSR(canon, g); err != nil {
		return fail("csr backend: %v", err)
	}

	// Assemble every backend of the same (spec, n, seed). Each BuildSource
	// gets a fresh rng.New(seed), so random families rebuild the identical
	// structure per backend; implicit families ignore the rng entirely.
	type backend struct {
		name string
		src  topo.NeighborSource
	}
	backends := []backend{{"default", g}, {"opaque", opaqueGraph{g}}, {"csr", csr2}}
	if implicit, _ := topo.IsImplicit(spec.Spec); implicit {
		impSrc, err := topo.BuildSource(spec.Spec, spec.N, nil, topo.BuildOpts{})
		if err != nil {
			return fail("implicit backend: %v", err)
		}
		backends = append(backends, backend{"implicit", impSrc})
	}
	if dir, err := os.MkdirTemp("", "validate-mmap-*"); err == nil {
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, topo.CacheFileName(canon, spec.N, seed))
		mmapSrc, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{Path: path})
		if err != nil {
			return fail("mmap backend: %v", err)
		}
		if c, ok := mmapSrc.(io.Closer); ok {
			defer c.Close()
		}
		backends = append(backends, backend{"mmap", mmapSrc})
	}

	init := colorcfg.Biased(spec.N, spec.K, spec.Bias)
	engines := make([]*engine.GraphEngine, len(backends))
	for i, b := range backends {
		engines[i] = engine.NewGraphEngine(dynamics.ThreeMajority{}, b.src, init, contractWorkers[i],
			seed^0x9e3779b9, rng.New(seed+1))
		defer engines[i].Close()
	}
	for round := 1; round <= spec.Rounds; round++ {
		for _, e := range engines {
			e.Step(nil)
		}
		ref := engines[0].Config()
		if err := ref.Validate(spec.N); err != nil {
			return fail("round %d: conservation violated: %v", round, err)
		}
		for i := 1; i < len(engines); i++ {
			if c := engines[i].Config(); !ref.Equal(c) {
				return fail("round %d: %s backend (w=%d) diverged from %s (w=%d): %v vs %v",
					round, backends[i].name, contractWorkers[i], backends[0].name, contractWorkers[0], c, ref)
			}
			if !slices.Equal(engines[0].Colors(), engines[i].Colors()) {
				return fail("round %d: %s backend (w=%d) per-vertex colors diverged from %s (w=%d)",
					round, backends[i].name, contractWorkers[i], backends[0].name, contractWorkers[0])
			}
		}
	}
	res.Replicates = spec.Rounds
	return res
}

// CertifyGraphContracts runs CheckGraphContract over a family of specs.
func CertifyGraphContracts(specs []GraphContractSpec, opts Options) []CheckResult {
	out := make([]CheckResult, 0, len(specs))
	for i, spec := range specs {
		o := opts
		if o.Seed != 0 {
			o.Seed = opts.Seed + uint64(i)*101
		}
		out = append(out, CheckGraphContract(spec, o))
	}
	return out
}
