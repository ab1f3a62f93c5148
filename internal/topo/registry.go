package topo

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"plurality/internal/rng"
)

// The registry is the one place topology specs are parsed. A spec is a
// family name plus colon-separated parameters ("regular:8",
// "smallworld:10:0.1", "sbm:4:0.01:0.0005"). Each family's one parse
// function checks its parameters in constant time against n and the
// resource caps below (never panicking, so a hostile service spec is a
// 400, not a crash) and returns the canonical spec with the graph's
// constructor: Validate and Canonical stop there, and BuildSource calls
// the constructor. cmd/sweep, internal/service, cmd/validate, and
// examples/topologies all resolve names here — there is no other parser.

// Resource caps enforced by Validate. They bound what one topology can pin
// in memory: MaxAdjEntries bounds len(CSR.Neighbors) (2 entries per edge,
// 4 bytes per int32 entry — 1 GiB at the cap), MaxDegreeParam bounds the
// degree-like parameters (d, k, m) so repair loops stay near-linear, and
// MaxBlocks bounds the SBM's O(blocks²) block-pair walk.
const (
	MaxAdjEntries  = int64(1) << 28
	MaxDegreeParam = int64(1) << 10
	MaxBlocks      = int64(1) << 10
)

// ErrTooLarge marks size-cap rejections: the spec is well-formed and the
// family supports the shape, but this n exceeds a materialization cap
// (MaxAdjEntries adjacency entries or MaxBuilderN vertices). It is a
// different failure from "unsupported at any n" (bad parameters, wrong n
// shape) — callers can match it with errors.Is and suggest a remediation:
// an implicit family (torus, hypercube, complete, cycle, star) has no
// materialization cost at all, and mmap mode moves a materialized family's
// adjacency out of RAM.
var ErrTooLarge = errors.New("exceeds a materialization cap")

// tooLargef builds a cap-rejection error wrapping ErrTooLarge.
func tooLargef(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrTooLarge)...)
}

// family describes one registered topology family.
type family struct {
	name  string
	usage string
	// implicit reports whether the family's default build is an O(1)-memory
	// functional graph (neighbors computed, never stored) rather than a
	// materialized CSR. Implicit families have no adjacency cap and scale
	// to n bounded only by the engine's color arrays.
	implicit bool
	// parse checks params (already split, family prefix stripped) against
	// n and returns the canonical spec together with the graph's
	// constructor, so a spec is parsed once whether it is only validated
	// or also built. It must run in O(1) and never panic.
	parse func(n int64, params []string) (canon string, build builder, err error)
}

// builder constructs a parsed spec's graph, drawing any randomness from r
// (implicit families ignore it).
type builder func(r *rng.Rand) NeighborSource

// families is the registry, in documentation order.
var families = []family{
	{
		name: "complete", usage: "complete", implicit: true,
		// The paper's clique; uniform sampling with self.
		parse: func(n int64, ps []string) (string, builder, error) {
			if err := noParams("complete", ps); err != nil {
				return "", nil, err
			}
			if n < 1 {
				return "", nil, fmt.Errorf("complete needs n >= 1, got %d", n)
			}
			return "complete", func(*rng.Rand) NeighborSource { return NewComplete(n) }, nil
		},
	},
	{
		name: "cycle", usage: "cycle", implicit: true,
		// The n-vertex ring; the slowest-mixing connected topology.
		parse: func(n int64, ps []string) (string, builder, error) {
			if err := noParams("cycle", ps); err != nil {
				return "", nil, err
			}
			if n < 3 {
				return "", nil, fmt.Errorf("cycle needs n >= 3, got %d", n)
			}
			return "cycle", func(*rng.Rand) NeighborSource { return NewCycle(n) }, nil
		},
	},
	{
		name: "star", usage: "star", implicit: true,
		// Hub 0 adjacent to all leaves.
		parse: func(n int64, ps []string) (string, builder, error) {
			if err := noParams("star", ps); err != nil {
				return "", nil, err
			}
			if n < 2 {
				return "", nil, fmt.Errorf("star needs n >= 2, got %d", n)
			}
			return "star", func(*rng.Rand) NeighborSource { return NewStar(n) }, nil
		},
	},
	{
		name: "torus", usage: "torus[:DIMS]", implicit: true,
		// Equal-sided DIMS-dimensional torus (default 2-d square); n must be an
		// exact DIMS-th power with side >= 3.
		parse: func(n int64, ps []string) (string, builder, error) {
			dims := int64(2)
			if len(ps) > 1 {
				return "", nil, fmt.Errorf("torus takes at most one parameter (torus[:DIMS]), got %d", len(ps))
			}
			if len(ps) == 1 {
				var err error
				dims, err = intParam("torus", "DIMS", ps[0], 1, 20)
				if err != nil {
					return "", nil, err
				}
			}
			side, ok := intRoot(n, int(dims))
			if !ok || side < 3 {
				return "", nil, fmt.Errorf("torus:%d needs n = side^%d with side >= 3, got n=%d", dims, dims, n)
			}
			canon := "torus"
			if len(ps) == 1 {
				canon = fmt.Sprintf("torus:%d", dims)
			}
			return canon, func(*rng.Rand) NeighborSource { return TorusD{Side: side, Dims: int(dims)} }, nil
		},
	},
	{
		name: "hypercube", usage: "hypercube", implicit: true,
		// The log2(n)-dimensional boolean hypercube; n must be a power of two.
		parse: func(n int64, ps []string) (string, builder, error) {
			if err := noParams("hypercube", ps); err != nil {
				return "", nil, err
			}
			if n < 2 || n&(n-1) != 0 {
				return "", nil, fmt.Errorf("hypercube needs n a power of two >= 2, got %d", n)
			}
			if n >= MaxBuilderN {
				return "", nil, tooLargef("hypercube: n = %d exceeds the 2^31 vertex cap", n)
			}
			return "hypercube", func(*rng.Rand) NeighborSource { return NewHypercube(n) }, nil
		},
	},
	{
		name: "regular", usage: "regular:D",
		// Uniform-ish random D-regular graph (configuration model + swap
		// repair); an expander w.h.p.
		parse: func(n int64, ps []string) (string, builder, error) {
			d, err := oneIntParam("regular", "D", ps, 1, MaxDegreeParam)
			if err != nil {
				return "", nil, err
			}
			if err := checkBuilderN("regular", n); err != nil {
				return "", nil, err
			}
			if d >= n {
				return "", nil, fmt.Errorf("regular:%d needs degree < n = %d", d, n)
			}
			if n*d%2 != 0 {
				return "", nil, fmt.Errorf("regular:%d needs n·d even (n = %d)", d, n)
			}
			if n*d > MaxAdjEntries {
				return "", nil, tooLargef("regular:%d at n = %d exceeds the %d materialized adjacency-entry cap", d, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("regular:%d", d)
			return canon, func(r *rng.Rand) NeighborSource { return RandomRegular(canon, n, d, r) }, nil
		},
	},
	{
		name: "gnp", usage: "gnp:P",
		// Erdős–Rényi G(n, P); sparse G(n, c/n) sits at the connectivity
		// threshold.
		parse: func(n int64, ps []string) (string, builder, error) {
			p, err := oneFloatParam("gnp", "P", ps, 0, 1)
			if err != nil {
				return "", nil, err
			}
			if err := checkBuilderN("gnp", n); err != nil {
				return "", nil, err
			}
			if p*float64(n)*float64(n-1) > float64(MaxAdjEntries) {
				return "", nil, tooLargef("gnp:%g at n = %d expects more than the %d materialized adjacency-entry cap", p, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("gnp:%g", p)
			return canon, func(r *rng.Rand) NeighborSource { return Gnp(canon, n, p, r) }, nil
		},
	},
	{
		name: "smallworld", usage: "smallworld:K:BETA",
		// Watts–Strogatz: ring lattice of even degree K with each edge rewired
		// with probability BETA.
		parse: func(n int64, ps []string) (string, builder, error) {
			if len(ps) != 2 {
				return "", nil, fmt.Errorf("smallworld takes two parameters (smallworld:K:BETA), got %d", len(ps))
			}
			k, err := intParam("smallworld", "K", ps[0], 2, MaxDegreeParam)
			if err != nil {
				return "", nil, err
			}
			beta, err := floatParam("smallworld", "BETA", ps[1], 0, 1)
			if err != nil {
				return "", nil, err
			}
			if k%2 != 0 {
				return "", nil, fmt.Errorf("smallworld:%d needs even K", k)
			}
			if err := checkBuilderN("smallworld", n); err != nil {
				return "", nil, err
			}
			if k >= n {
				return "", nil, fmt.Errorf("smallworld:%d needs K < n = %d", k, n)
			}
			if n*k > MaxAdjEntries {
				return "", nil, tooLargef("smallworld:%d at n = %d exceeds the %d materialized adjacency-entry cap", k, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("smallworld:%d:%g", k, beta)
			return canon, func(r *rng.Rand) NeighborSource { return SmallWorld(canon, n, k, beta, r) }, nil
		},
	},
	{
		name: "ba", usage: "ba:M",
		// Barabási–Albert preferential attachment, M edges per arriving vertex;
		// heavy-tailed hubs.
		parse: func(n int64, ps []string) (string, builder, error) {
			m, err := oneIntParam("ba", "M", ps, 1, MaxDegreeParam)
			if err != nil {
				return "", nil, err
			}
			if err := checkBuilderN("ba", n); err != nil {
				return "", nil, err
			}
			if m+1 > n {
				return "", nil, fmt.Errorf("ba:%d needs M+1 <= n = %d", m, n)
			}
			if 2*m*n > MaxAdjEntries {
				return "", nil, tooLargef("ba:%d at n = %d exceeds the %d materialized adjacency-entry cap", m, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("ba:%d", m)
			return canon, func(r *rng.Rand) NeighborSource { return BarabasiAlbert(canon, n, m, r) }, nil
		},
	},
	{
		name: "sbm", usage: "sbm:B:PIN:POUT",
		// Stochastic block model: B planted communities, edge probability PIN
		// inside and POUT across — the adversarial case for plurality.
		parse: func(n int64, ps []string) (string, builder, error) {
			if len(ps) != 3 {
				return "", nil, fmt.Errorf("sbm takes three parameters (sbm:B:PIN:POUT), got %d", len(ps))
			}
			blocks, err := intParam("sbm", "B", ps[0], 1, MaxBlocks)
			if err != nil {
				return "", nil, err
			}
			pin, err := floatParam("sbm", "PIN", ps[1], 0, 1)
			if err != nil {
				return "", nil, err
			}
			pout, err := floatParam("sbm", "POUT", ps[2], 0, 1)
			if err != nil {
				return "", nil, err
			}
			if blocks > n {
				return "", nil, fmt.Errorf("sbm:%d needs B <= n = %d", blocks, n)
			}
			if err := checkBuilderN("sbm", n); err != nil {
				return "", nil, err
			}
			size := float64(n) / float64(blocks)
			expected := float64(n) * (pin*size + pout*(float64(n)-size))
			if expected > float64(MaxAdjEntries) {
				return "", nil, tooLargef("sbm:%d:%g:%g at n = %d expects more than the %d materialized adjacency-entry cap", blocks, pin, pout, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("sbm:%d:%g:%g", blocks, pin, pout)
			return canon, func(r *rng.Rand) NeighborSource { return SBM(canon, n, blocks, pin, pout, r) }, nil
		},
	},
	{
		name: "barbell", usage: "barbell:D",
		// Bottleneck: two random D-regular halves joined by one bridge edge;
		// conductance Θ(1/(n·D)).
		parse: func(n int64, ps []string) (string, builder, error) {
			d, err := oneIntParam("barbell", "D", ps, 1, MaxDegreeParam)
			if err != nil {
				return "", nil, err
			}
			if err := checkBuilderN("barbell", n); err != nil {
				return "", nil, err
			}
			h := n / 2
			if n%2 != 0 || d >= h {
				return "", nil, fmt.Errorf("barbell:%d needs even n with D < n/2, got n = %d", d, n)
			}
			if h*d%2 != 0 {
				return "", nil, fmt.Errorf("barbell:%d needs (n/2)·D even (n = %d)", d, n)
			}
			if n*d+2 > MaxAdjEntries {
				return "", nil, tooLargef("barbell:%d at n = %d exceeds the %d materialized adjacency-entry cap", d, n, MaxAdjEntries)
			}
			canon := fmt.Sprintf("barbell:%d", d)
			return canon, func(r *rng.Rand) NeighborSource { return Barbell(canon, n, d, r) }, nil
		},
	},
}

// lookup splits a spec into its family descriptor and parameter list.
func lookup(spec string) (*family, []string, error) {
	parts := strings.Split(spec, ":")
	for i := range families {
		if families[i].name == parts[0] {
			return &families[i], parts[1:], nil
		}
	}
	return nil, nil, fmt.Errorf("unknown graph %q (families: %s)", spec, strings.Join(FamilyUsages(), ", "))
}

// FamilyUsages returns the usage string of every registered family, in
// documentation order (for help text and error messages).
func FamilyUsages() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.usage
	}
	return out
}

// Validate checks a topology spec against n and the resource caps. It runs
// in constant time and never panics, so it is safe on hostile input (the
// service admission path depends on this).
func Validate(spec string, n int64) error {
	_, err := Canonical(spec, n)
	return err
}

// Canonical validates the spec and returns its canonical form (numeric
// parameters normalized), which is what BuildSource stamps into
// CSR.GraphName and what callers should persist in records.
func Canonical(spec string, n int64) (string, error) {
	f, params, err := lookup(spec)
	if err != nil {
		return "", err
	}
	canon, _, err := f.parse(n, params)
	return canon, err
}

// IsImplicit reports whether the spec's family has an implicit O(1)-memory
// backend (complete, cycle, star, torus, hypercube). Implicit families
// carry no adjacency materialization cost, so callers (e.g. the service's
// admission caps) may allow far larger n for them.
func IsImplicit(spec string) (bool, error) {
	f, _, err := lookup(spec)
	if err != nil {
		return false, err
	}
	return f.implicit, nil
}

// Mode selects the backend representation BuildSource constructs behind
// the NeighborSource interface. Every mode enumerates the same neighbors
// in the same order, so for overlapping (spec, n, seed) the modes produce
// byte-identical seeded runs — the choice is purely a memory/latency
// trade.
type Mode string

const (
	// ModeAuto is the family default: implicit families stay implicit,
	// generator families build an in-RAM CSR.
	ModeAuto Mode = "auto"
	// ModeImplicit requires the family's O(1)-memory functional backend
	// and errors for families that must materialize.
	ModeImplicit Mode = "implicit"
	// ModeCSR forces an in-RAM CSR, materializing implicit families in
	// their enumeration order (subject to the MaxAdjEntries cap).
	ModeCSR Mode = "csr"
	// ModeMmap serves the CSR from an on-disk file via OpenCSR: an
	// existing file at BuildOpts.Path is opened and verified against the
	// spec; otherwise the graph is built, written atomically, and mapped.
	ModeMmap Mode = "mmap"
)

// ParseMode parses a user-facing mode string ("" means auto).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeAuto:
		return ModeAuto, nil
	case ModeImplicit, ModeCSR, ModeMmap:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown graph mode %q (want auto, implicit, csr, or mmap)", s)
}

// BuildOpts selects the backend for BuildSource.
type BuildOpts struct {
	// Mode picks the representation; zero value is ModeAuto.
	Mode Mode
	// Path is the CSR file for ModeMmap (required there, ignored
	// elsewhere). Derive shared cache paths with CacheFileName.
	Path string
}

// BuildSource validates the spec and constructs it on n vertices behind
// the selected backend. All randomness comes from r (deterministic
// families accept a nil r), so the result is a pure function of
// (spec, n, r's state, opts) — in mmap mode a pre-existing file at
// opts.Path is reused without consuming r, which is only sound because
// files written by this function are themselves pure functions of the
// same inputs.
//
// The returned source may hold an OS resource (mmap mode): callers that
// care should close it via an io.Closer type assertion when done.
func BuildSource(spec string, n int64, r *rng.Rand, opts BuildOpts) (NeighborSource, error) {
	f, params, err := lookup(spec)
	if err != nil {
		return nil, err
	}
	canon, build, err := f.parse(n, params)
	if err != nil {
		return nil, err
	}
	mode := opts.Mode
	if mode == "" {
		mode = ModeAuto
	}
	switch mode {
	case ModeAuto:
		return build(r), nil
	case ModeImplicit:
		if !f.implicit {
			return nil, fmt.Errorf("topo: %s has no implicit backend (implicit families: %s)", f.name, strings.Join(implicitFamilyNames(), ", "))
		}
		return build(r), nil
	case ModeCSR:
		return buildCSR(canon, build(r))
	case ModeMmap:
		if opts.Path == "" {
			return nil, fmt.Errorf("topo: mmap mode needs a file path (BuildOpts.Path)")
		}
		// Serialize open-or-build per cache path (see filelock.go): of any
		// number of concurrent callers — goroutines here or other processes
		// via the <path>.lock flock — exactly one builds the CSR; the rest
		// block on the lock and then reuse the file through the OpenCSR
		// below.
		unlock, err := lockBuild(opts.Path)
		if err != nil {
			return nil, err
		}
		defer unlock()
		if m, err := OpenCSR(opts.Path); err == nil {
			if m.Name() != canon || m.N() != n {
				got, gotN := m.Name(), m.N()
				m.Close()
				return nil, fmt.Errorf("topo: %s holds %q with n=%d, want %q with n=%d", opts.Path, got, gotN, canon, n)
			}
			return m, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		mmapCacheBuilds.Add(1)
		csr, err := buildCSR(canon, build(r))
		if err != nil {
			return nil, err
		}
		if err := WriteCSRFile(csr, opts.Path); err != nil {
			return nil, err
		}
		return OpenCSR(opts.Path)
	}
	return nil, fmt.Errorf("unknown graph mode %q (want auto, implicit, csr, or mmap)", mode)
}

// buildCSR returns g as an in-RAM CSR, materializing it when it is not
// one already.
func buildCSR(canon string, g NeighborSource) (*CSR, error) {
	if csr, ok := g.(*CSR); ok {
		return csr, nil
	}
	return MaterializeCSR(canon, g)
}

// implicitFamilyNames lists the families carrying an implicit backend, in
// registry order (for error messages).
func implicitFamilyNames() []string {
	var out []string
	for _, f := range families {
		if f.implicit {
			out = append(out, f.name)
		}
	}
	return out
}

// ----- parameter parsing helpers (strict, constant-time) -----

// checkBuilderN guards every builder-backed (materialized) family: the CSR
// builder addresses at most 2^31 vertices, so Validate must reject larger
// n here or BuildSource would panic — and with n < 2^31 and degree parameters
// capped at MaxDegreeParam, the n·d cap arithmetic cannot overflow int64.
// The n >= 2^31 branch is a size-cap rejection (ErrTooLarge), distinct
// from the malformed n < 1.
func checkBuilderN(name string, n int64) error {
	if n < 1 {
		return fmt.Errorf("%s needs n >= 1, got %d", name, n)
	}
	if n >= MaxBuilderN {
		return tooLargef("%s: n = %d exceeds the 2^31 materialized vertex cap", name, n)
	}
	return nil
}

func noParams(name string, ps []string) error {
	if len(ps) != 0 {
		return fmt.Errorf("%s takes no parameters, got %q", name, strings.Join(ps, ":"))
	}
	return nil
}

func oneIntParam(name, label string, ps []string, lo, hi int64) (int64, error) {
	if len(ps) != 1 {
		return 0, fmt.Errorf("%s takes one parameter (%s:%s), got %d", name, name, label, len(ps))
	}
	return intParam(name, label, ps[0], lo, hi)
}

func intParam(name, label, s string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q (want an integer)", name, label, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s: %s = %d outside [%d, %d]", name, label, v, lo, hi)
	}
	return v, nil
}

func oneFloatParam(name, label string, ps []string, lo, hi float64) (float64, error) {
	if len(ps) != 1 {
		return 0, fmt.Errorf("%s takes one parameter (%s:%s), got %d", name, name, label, len(ps))
	}
	return floatParam(name, label, ps[0], lo, hi)
}

func floatParam(name, label, s string, lo, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("%s: bad %s %q (want a number)", name, label, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s: %s = %g outside [%g, %g]", name, label, v, lo, hi)
	}
	return v, nil
}
