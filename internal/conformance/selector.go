// Package conformance is the differential-testing subsystem that
// cross-checks every bandwidth selector in the repository against a
// shared oracle. The paper's central claim (§III–IV.C) is that the
// sorted incremental grid search and its device ports compute *exactly*
// the naive leave-one-out CV objective, only faster; incremental-sum
// shortcuts are notorious for silently diverging from the quantity they
// claim to compute, so this package machine-checks the agreement on a
// corpus of adversarial datasets instead of trusting per-package spot
// tests.
//
// The pieces:
//
//   - Registry: every selector implementation (host float64, device
//     float32 simulation, the public kernreg methods, the numerical
//     baseline) wrapped behind one Selector adapter.
//   - Corpus: a deterministic dataset generator covering adversarial
//     shapes — duplicate X, clusters, heavy tails, constant Y,
//     near-zero denominators, n from 2 to a few thousand.
//   - RunAll: the oracle engine — runs all registered selectors on each
//     dataset and asserts agreement with the naive float64 reference
//     under the per-class tolerance policy of policy.go.
//   - CheckInvariants: metamorphic invariance checks (X shift/scale
//     with h scaling accordingly, observation permutation, Y sign flip)
//     generalising internal/bandwidth/invariance_test.go to every
//     backend.
//
// It is exercised by `go test ./internal/conformance/...` (tier 1) and
// by the `cmd/conform` CLI, which prints the per-backend agreement
// matrix.
package conformance

import (
	"context"

	"repro/internal/bandwidth"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/kernreg"
)

// Class describes a selector's numeric contract, which decides the
// tolerance policy the oracle engine applies (see policy.go).
type Class int

const (
	// Exact selectors compute the CV objective in float64 on the host;
	// they must agree with the oracle on the arg-min grid index exactly
	// and on the CV score to ~1 ULP-of-float64 accumulation.
	Exact Class = iota
	// Float32 selectors run the device-simulation pipelines in single
	// precision; they agree within the documented ULP-scaled float32
	// bound, with a near-tie escape hatch for grid points the float64
	// objective cannot distinguish at float32 resolution.
	Float32
	// Continuum selectors search the real line rather than the grid
	// (the numerical baselines the paper criticises); no index exists
	// to compare, so only self-consistency is checked: the reported CV
	// must equal the naive objective re-evaluated at the reported h.
	Continuum
	// Statistical selectors are randomized estimators of the oracle's
	// answer (the bagged subsample selector): deterministic given a
	// seed, but deliberately not computing the full-sample objective.
	// The policy checks a tolerance *band* around the oracle bandwidth
	// rather than any exact or ULP-scaled equality — except on the
	// m == n degenerate path, which must match the Exact contract.
	Statistical
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case Exact:
		return "exact"
	case Float32:
		return "float32"
	case Continuum:
		return "continuum"
	case Statistical:
		return "statistical"
	default:
		return "unknown"
	}
}

// Family identifies which CV objective a selector minimises. Selectors
// are only comparable within a family; each family has its own oracle.
type Family int

const (
	// LocalConstant is the Nadaraya–Watson LOO-CV objective (paper
	// eq. 1) — the paper's target and the family of every device path.
	LocalConstant Family = iota
	// LocalLinear is the local-linear LOO-CV objective ("ll" in np).
	LocalLinear
)

// String returns the np-style family name.
func (f Family) String() string {
	switch f {
	case LocalConstant:
		return "lc"
	case LocalLinear:
		return "ll"
	default:
		return "unknown"
	}
}

// Selector adapts one bandwidth-selection implementation to the common
// differential-testing interface: given a sample and an explicit
// ascending grid, return the grid search result.
type Selector struct {
	// Name is the stable identifier used in the agreement matrix.
	Name string
	// Class selects the tolerance policy.
	Class Class
	// Family selects the oracle objective.
	Family Family
	// MinN is the smallest sample size the backend supports.
	MinN int
	// Kernel is the kernel the selector weights with; the engine checks
	// it against the naive oracle of the same kernel. The zero value is
	// the paper's Epanechnikov kernel.
	Kernel kernel.Kind
	// MinK is the smallest grid the backend supports (0 means any): the
	// public-API adapters express the grid as a [min, max] range, which
	// cannot describe a single-point grid, and the numerical baseline
	// needs a non-degenerate bracket.
	MinK int
	// Run executes one selection. Implementations must not mutate x, y
	// or g (the engine runs selectors concurrently in the race tests).
	// Adapters pass ctx straight through to the backend; they must not
	// derive a new context from it, so that the cancellation conformance
	// tests can observe exactly the ctx they hand in.
	Run func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error)
}

// Registry returns every registered selector adapter. The naive float64
// searches double as the oracles for their families, so they appear here
// too — a selector trivially agreeing with itself is the engine's
// sanity anchor.
func Registry() []Selector {
	return []Selector{
		{
			Name: "naive", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.NaiveGridSearch(ctx, x, y, g, kernel.Epanechnikov)
			},
		},
		{
			Name: "sorted", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.SortedGridSearch(ctx, x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
			},
		},
		{
			Name: "sorted-parallel", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.SortedGridSearchParallel(ctx, x, y, g, 4, bandwidth.Compensated)
			},
		},
		{
			Name: "twopointer", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.TwoPointerGridSearch(ctx, x, y, g, kernel.Epanechnikov, bandwidth.Compensated)
			},
		},
		{
			Name: "twopointer-parallel", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.TwoPointerGridSearchParallel(ctx, x, y, g, 4, bandwidth.Compensated)
			},
		},
		windowSelector("window", kernel.Epanechnikov),
		windowSelector("window-uniform", kernel.Uniform),
		windowSelector("window-triangular", kernel.Triangular),
		{
			// coord-sharded routes every dataset through a 3-replica
			// in-process cluster (internal/coord): the grid is sharded by
			// queue depth, shard winners merge with the lowest-index
			// tie-break, and the Exact policy then proves the sharded
			// answer equals the single-node one. See coord.go for why the
			// shared cluster runs with its result cache disabled here.
			Name: "coord-sharded", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: runCoordSharded("twopointer"),
		},
		{
			// coord-sharded-window is the same cluster running the default
			// window sweep: each bandwidth is an independent pass, so the
			// sharded answer is the single-node one by construction.
			Name: "coord-sharded-window", Class: Exact, Family: LocalConstant, MinN: 2,
			Run: runCoordSharded("window"),
		},
		{
			Name: "kernreg-sorted", Class: Exact, Family: LocalConstant, MinN: 2, MinK: 2,
			Run: runPublicAPI(kernreg.MethodSorted),
		},
		{
			Name: "kernreg-twopointer", Class: Exact, Family: LocalConstant, MinN: 2, MinK: 2,
			Run: runPublicAPI(kernreg.MethodTwoPointer),
		},
		{
			Name: "kernreg-naive", Class: Exact, Family: LocalConstant, MinN: 2, MinK: 2,
			Run: runPublicAPI(kernreg.MethodNaive),
		},
		publicWindowSelector("kernreg-window", kernel.Epanechnikov),
		publicWindowSelector("kernreg-window-uniform", kernel.Uniform),
		publicWindowSelector("kernreg-window-triangular", kernel.Triangular),
		{
			Name: "sorted-f32", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return core.SortedSequential(ctx, x, y, g, bandwidth.Compensated)
			},
		},
		{
			Name: "twopointer-f32", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return core.TwoPointerSequential(ctx, x, y, g, bandwidth.Compensated)
			},
		},
		{
			Name: "gpu", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				r, _, err := core.SelectGPU(ctx, x, y, g, core.GPUOptions{KeepScores: true})
				return r, err
			},
		},
		{
			Name: "gpu-tiled", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				// A small fixed chunk forces multiple kernel launches so the
				// scratch-reuse path is genuinely exercised, not just the
				// degenerate chunk == n case autoChunk picks on a 4 GB card.
				chunk := 64
				if n := len(x); chunk > n {
					chunk = n
				}
				r, _, _, err := core.SelectGPUTiled(ctx, x, y, g, core.TiledOptions{ChunkSize: chunk, KeepScores: true})
				return r, err
			},
		},
		{
			Name: "gpu-multi", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				m, err := gpu.NewSimManager(3, gpu.TeslaS10())
				if err != nil {
					return bandwidth.Result{}, err
				}
				r, err := core.SelectGPUFleet(ctx, x, y, g, m, core.GPUOptions{KeepScores: true})
				return r.Result, err
			},
		},
		{
			// multigpu-chaos runs the fleet scheduler with an XID injected
			// on device 1's first kernel launch, so every corpus dataset
			// exercises the requeue path; the self-healing contract says
			// the result is bit-identical to the healthy gpu-multi entry
			// above, and the agreement matrix verifies exactly that.
			Name: "multigpu-chaos", Class: Float32, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				m, err := gpu.NewSimManager(3, gpu.TeslaS10())
				if err != nil {
					return bandwidth.Result{}, err
				}
				if err := m.InjectXID(1, 79, 1); err != nil {
					return bandwidth.Result{}, err
				}
				r, err := core.SelectGPUFleet(ctx, x, y, g, m, core.GPUOptions{KeepScores: true})
				return r.Result, err
			},
		},
		{
			Name: "ll-naive", Class: Exact, Family: LocalLinear, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.NaiveGridSearchLocalLinear(ctx, x, y, g, kernel.Epanechnikov)
			},
		},
		{
			Name: "ll-sorted", Class: Exact, Family: LocalLinear, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.SortedGridSearchLocalLinear(ctx, x, y, g, bandwidth.Compensated)
			},
		},
		{
			Name: "ll-twopointer", Class: Exact, Family: LocalLinear, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				return bandwidth.TwoPointerGridSearchLocalLinear(ctx, x, y, g, bandwidth.Compensated)
			},
		},
		{
			// bagged runs with deliberately small fixed parameters (5 bags
			// of 3n/4) so the subsampling machinery is genuinely exercised
			// on the small corpus — the production defaults would pick
			// m = n there and reduce every cell to the degenerate path.
			Name: "bagged", Class: Statistical, Family: LocalConstant, MinN: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				m := 3 * len(x) / 4
				if m < 2 {
					m = 2
				}
				r, err := bandwidth.BaggedGridSearch(ctx, x, y, g, kernel.Epanechnikov, bandwidth.BaggedOptions{
					Bags: 5, BagSize: m, Seed: 20170529, Workers: 2,
				})
				if err != nil {
					return bandwidth.Result{}, err
				}
				return r.Result, nil
			},
		},
		{
			Name: "numerical", Class: Continuum, Family: LocalConstant, MinN: 3, MinK: 2,
			Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
				r, err := baselines.SelectNumerical(ctx, x, y, baselines.Options{
					Kernel: kernel.Epanechnikov,
					Lo:     g.Min(),
					Hi:     g.Max(),
				})
				if err != nil {
					return bandwidth.Result{}, err
				}
				return bandwidth.Result{H: r.H, CV: r.CV, Index: -1}, nil
			},
		},
	}
}

// windowSelector registers the window-sum sweep with one kernel.
func windowSelector(name string, k kernel.Kind) Selector {
	return Selector{
		Name: name, Class: Exact, Family: LocalConstant, Kernel: k, MinN: 2,
		Run: func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
			return bandwidth.WindowGridSearch(ctx, x, y, g, k)
		},
	}
}

// publicWindowSelector registers the public API's default method with
// one kernel, reached without WithMethod: the entry pins what
// kernreg.SelectBandwidth does when the caller names no method.
func publicWindowSelector(name string, k kernel.Kind) Selector {
	return Selector{
		Name: name, Class: Exact, Family: LocalConstant, Kernel: k, MinN: 2, MinK: 2,
		Run: runPublicAPIWith(kernreg.WithKernel(k.String())),
	}
}

// runPublicAPI adapts kernreg.SelectBandwidth with method m to the
// Selector interface.
func runPublicAPI(m kernreg.Method) func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return runPublicAPIWith(kernreg.WithMethod(m))
}

// runPublicAPIWith adapts kernreg.SelectBandwidth with the given options
// to the Selector interface. The engine's grids are always built with
// bandwidth.NewGrid over an explicit [min, max], and kernreg.GridRange
// calls the same constructor with the same arguments, so the public API
// runs on the bit-identical grid — a prerequisite for exact index
// comparison.
func runPublicAPIWith(opts ...kernreg.Option) func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
		sel, err := kernreg.SelectBandwidthContext(ctx, x, y, append(opts[:len(opts):len(opts)],
			kernreg.GridSize(g.Len()),
			kernreg.GridRange(g.Min(), g.Max()),
			kernreg.KeepScores(),
		)...)
		if err != nil {
			return bandwidth.Result{}, err
		}
		return bandwidth.Result{H: sel.Bandwidth, CV: sel.CV, Index: sel.Index, Scores: sel.Scores}, nil
	}
}

// oracleFor returns the reference selector of a family: the naive
// float64 grid search, which evaluates the objective definitionally,
// one bandwidth at a time, with no incremental shortcut to get wrong.
func oracleFor(f Family) Selector {
	for _, s := range Registry() {
		if s.Family == f && (s.Name == "naive" || s.Name == "ll-naive") {
			return s
		}
	}
	panic("conformance: no oracle registered for family " + f.String())
}
