package kernreg

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bandwidth"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/kernel"
)

// Method selects the bandwidth-search algorithm.
type Method int

const (
	// MethodSorted is the paper's sorted incremental grid search
	// (double precision): Program 3's algorithm without the float32
	// narrowing.
	MethodSorted Method = iota
	// MethodSortedParallel fans the sorted search across goroutines.
	MethodSortedParallel
	// MethodSortedF32 is the single-precision variant, bit-faithful to
	// the paper's sequential C program.
	MethodSortedF32
	// MethodNaive evaluates the CV objective independently per grid
	// point (O(k·n²)); works with every kernel.
	MethodNaive
	// MethodNumerical uses derivative-free numerical optimisation (the
	// approach of the R np package). Subject to local minima.
	MethodNumerical
	// MethodGPU runs the paper's CUDA pipeline on a simulated GPU
	// (functional mode), including its memory-capacity limits.
	MethodGPU
	// MethodGPUTiled runs the future-work tiled pipeline (no n×n
	// matrices) on the simulated GPU: identical results, O(C·n) device
	// memory.
	MethodGPUTiled
	// MethodTwoPointer replaces the per-observation sorts of
	// MethodSorted with one global sort plus a two-pointer neighbour
	// merge per observation: O(n log n + n·(n+k)) total instead of
	// O(n² log n), same objective, same grid.
	MethodTwoPointer
	// MethodTwoPointerParallel shards the two-pointer sweep across
	// goroutines over the single shared sorted sample.
	MethodTwoPointerParallel
	// MethodTwoPointerF32 is the single-precision two-pointer variant:
	// Program 3's arithmetic with the global-sort enumeration.
	MethodTwoPointerF32
	// MethodBagged bags the two-pointer search over r subsamples of
	// size m (Barreiro-Ures, Cao & Francisco-Fernández,
	// arXiv:2105.04134): each bag runs an exact Θ(m²) sweep, the mean
	// winner is rescaled by (m/n)^(1/5), and the whole selection costs
	// Θ(r·m²) — reaching million-point samples the exact selectors
	// cannot. Configure with Bags, BagSize and Seed; with BagSize(n)
	// (or n ≤ 512 under the defaults) it degenerates to MethodTwoPointer
	// bit-identically.
	MethodBagged
	// MethodWindow is the window-sum sweep: one global sort, then one
	// O(n) pass of sliding window sums per bandwidth, O(n log n + k·n)
	// in all. Exact over the grid for the Epanechnikov, Uniform and
	// Triangular kernels. The default (DefaultMethod).
	MethodWindow
)

// DefaultMethod is the search SelectBandwidth runs when no WithMethod
// option is given, and the method kernregd, kerncoord and /v1/shard run
// for an empty method name. The local-linear estimator and the AICc
// criterion, which the window sweep does not cover, fall back to
// MethodSorted when no method is given.
const DefaultMethod = MethodWindow

// The method table. Every fact about a Method — its name, which
// objectives and kernels it supports, whether a cluster may split its
// grid, and the code that runs it — is one row of methodTable, and
// every consumer (SelectBandwidth, String/ParseMethod, kernregd's shard
// endpoint, kerncoord's planner, bwgrid's help text, the conformance
// registry test) reads it from here.

// kernels is a set of kernel.Kinds, one bit per kind.
type kernels uint8

const (
	epanechnikovOnly = kernels(1) << kernel.Epanechnikov
	// compact is the set whose CV sums decompose into running prefix
	// sums (the paper's footnote 1).
	compact   = epanechnikovOnly | kernels(1)<<kernel.Uniform | kernels(1)<<kernel.Triangular
	anyKernel = ^kernels(0)
)

func (ks kernels) has(k kernel.Kind) bool { return ks&(kernels(1)<<k) != 0 }

func (ks kernels) String() string {
	var names []string
	for _, k := range kernel.Kinds() {
		if ks.has(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, ", ")
}

// runFunc runs one objective of one method over grid g (the zero Grid
// for a gridless method). It fills Bandwidth, CV, Index, Scores and
// BagCVVariance; SelectBandwidth fills the rest.
type runFunc func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error)

// objective is one (estimator, criterion) pair a method supports: the
// kernels it accepts and its runner. The zero objective is unsupported.
type objective struct {
	kernels kernels
	run     runFunc
}

// methodSpec is one row of the method table.
type methodSpec struct {
	name string
	// cv is the local-constant least-squares CV search (the paper's
	// objective); localLinear and aicc are the WithEstimator(LocalLinear)
	// and WithCriterion(CriterionAICc) searches.
	cv, localLinear, aicc objective
	// gridless methods search a continuum: no candidate grid is built
	// and the Selection carries Index -1 and no Grid.
	gridless bool
	// shardable methods may have their grid split into contiguous
	// sub-grids run on different replicas: each candidate's float64
	// score depends only on the data and that candidate, so merging the
	// shard winners with the lowest-index tie-break is bit-identical to
	// one run over the whole grid.
	shardable bool
}

var methodTable = [...]methodSpec{
	MethodSorted: {
		name: "sorted", shardable: true,
		cv:          objective{compact, withKernelStability(bandwidth.SortedGridSearch)},
		localLinear: objective{epanechnikovOnly, withStability(bandwidth.SortedGridSearchLocalLinear)},
		aicc: objective{epanechnikovOnly, func(ctx context.Context, x, y []float64, g bandwidth.Grid, _ config) (Selection, error) {
			return fromResult(bandwidth.SortedGridSearchAICc(ctx, x, y, g))
		}},
	},
	MethodSortedParallel: {
		name: "sorted-parallel", shardable: true,
		cv: objective{epanechnikovOnly, withWorkers(bandwidth.SortedGridSearchParallel)},
	},
	MethodSortedF32: {
		name: "sorted-f32",
		cv:   objective{epanechnikovOnly, withStability(core.SortedSequential)},
	},
	MethodNaive: {
		name: "naive", shardable: true,
		cv:          objective{anyKernel, withKernel(bandwidth.NaiveGridSearch)},
		localLinear: objective{anyKernel, withKernel(bandwidth.NaiveGridSearchLocalLinear)},
		aicc:        objective{anyKernel, withKernel(bandwidth.NaiveGridSearchAICc)},
	},
	MethodNumerical: {
		name: "numerical", gridless: true,
		cv: objective{anyKernel, selectNumerical},
	},
	MethodGPU: {
		name: "gpu",
		cv: objective{compact, func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
			r, _, err := core.SelectGPU(ctx, x, y, g, core.GPUOptions{KeepScores: c.keepScores, Kernel: c.kern, Uncompensated: !c.stable})
			return fromResult(r, err)
		}},
	},
	MethodGPUTiled: {
		name: "gpu-tiled",
		cv: objective{epanechnikovOnly, func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
			r, _, _, err := core.SelectGPUTiled(ctx, x, y, g, core.TiledOptions{KeepScores: c.keepScores, Uncompensated: !c.stable})
			return fromResult(r, err)
		}},
	},
	MethodTwoPointer: {
		name: "twopointer", shardable: true,
		cv:          objective{compact, withKernelStability(bandwidth.TwoPointerGridSearch)},
		localLinear: objective{epanechnikovOnly, withStability(bandwidth.TwoPointerGridSearchLocalLinear)},
	},
	MethodTwoPointerParallel: {
		name: "twopointer-parallel", shardable: true,
		cv: objective{epanechnikovOnly, withWorkers(bandwidth.TwoPointerGridSearchParallel)},
	},
	MethodTwoPointerF32: {
		name: "twopointer-f32",
		cv:   objective{epanechnikovOnly, withStability(core.TwoPointerSequential)},
	},
	MethodBagged: {
		name: "bagged",
		cv:   objective{compact, selectBagged},
	},
	MethodWindow: {
		name: "window", shardable: true,
		cv: objective{compact, withKernel(bandwidth.WindowGridSearch)},
	},
}

// Adapters from the selector packages' entry-point shapes to runFunc:
// each passes the configured kernel, summation mode and worker count.

func withKernel(f func(context.Context, []float64, []float64, bandwidth.Grid, kernel.Kind) (bandwidth.Result, error)) runFunc {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
		return fromResult(f(ctx, x, y, g, c.kern))
	}
}

func withStability(f func(context.Context, []float64, []float64, bandwidth.Grid, bandwidth.Stability) (bandwidth.Result, error)) runFunc {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
		return fromResult(f(ctx, x, y, g, c.stability()))
	}
}

func withKernelStability(f func(context.Context, []float64, []float64, bandwidth.Grid, kernel.Kind, bandwidth.Stability) (bandwidth.Result, error)) runFunc {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
		return fromResult(f(ctx, x, y, g, c.kern, c.stability()))
	}
}

func withWorkers(f func(context.Context, []float64, []float64, bandwidth.Grid, int, bandwidth.Stability) (bandwidth.Result, error)) runFunc {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
		return fromResult(f(ctx, x, y, g, c.workers, c.stability()))
	}
}

// fromResult converts a grid search's outcome to a Selection.
func fromResult(r bandwidth.Result, err error) (Selection, error) {
	if err != nil {
		return Selection{}, err
	}
	return Selection{Bandwidth: r.H, CV: r.CV, Index: r.Index, Scores: r.Scores}, nil
}

func selectNumerical(ctx context.Context, x, y []float64, _ bandwidth.Grid, c config) (Selection, error) {
	opt := baselines.Options{Kernel: c.kern, Starts: c.starts, Workers: c.workers}
	if c.gridMin > 0 {
		opt.Lo, opt.Hi = c.gridMin, c.gridMax
	}
	search := baselines.SelectNumerical
	if c.workers > 1 {
		search = baselines.SelectNumericalParallel
	}
	r, err := search(ctx, x, y, opt)
	if err != nil {
		return Selection{}, err
	}
	return Selection{Bandwidth: r.H, CV: r.CV, Index: -1}, nil
}

func selectBagged(ctx context.Context, x, y []float64, g bandwidth.Grid, c config) (Selection, error) {
	br, err := bandwidth.BaggedGridSearch(ctx, x, y, g, c.kern, bandwidth.BaggedOptions{
		Bags:        c.bags,
		BagSize:     c.bagSize,
		Seed:        uint64(c.seed),
		Workers:     c.workers,
		Stability:   c.stability(),
		Aggregation: c.agg,
	})
	if err != nil {
		return Selection{}, err
	}
	// Non-degenerate bags report Index -1: the rescaled aggregate is a
	// continuum value, not a grid point. The degenerate m == n path
	// carries the exact sweep's index and scores through unchanged.
	sel, _ := fromResult(br.Result, nil)
	sel.BagCVVariance = br.CVVar
	return sel, nil
}

// spec returns m's table row, or nil for a value outside the table.
func (m Method) spec() *methodSpec {
	if m < 0 || int(m) >= len(methodTable) {
		return nil
	}
	return &methodTable[m]
}

// String returns the method name.
func (m Method) String() string {
	if s := m.spec(); s != nil {
		return s.name
	}
	return fmt.Sprintf("kernreg.Method(%d)", int(m))
}

// ParseMethod returns the Method named by s.
func ParseMethod(s string) (Method, error) {
	for m := range methodTable {
		if methodTable[m].name == s {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("kernreg: unknown method %q", s)
}

// Methods lists every Method in declaration order.
func Methods() []Method {
	ms := make([]Method, len(methodTable))
	for m := range ms {
		ms[m] = Method(m)
	}
	return ms
}

// objective returns the runner c selects on m's row: the estimator and
// criterion choose the objective, and the kernel must be one it accepts.
func (s *methodSpec) objective(c config) (runFunc, error) {
	o, what := s.cv, "local-constant CV"
	switch {
	case c.estimator == LocalLinear:
		o, what = s.localLinear, "local-linear CV"
	case c.criterion == CriterionAICc:
		o, what = s.aicc, "AICc"
	}
	if o.run == nil {
		return nil, fmt.Errorf("kernreg: method %s does not support %s selection", s.name, what)
	}
	if !o.kernels.has(c.kern) {
		return nil, fmt.Errorf("kernreg: method %s (%s) does not support the %v kernel (supported: %s)", s.name, what, c.kern, o.kernels)
	}
	return o.run, nil
}

// ShardMethod resolves the method a sharded selection runs: the empty
// name is DefaultMethod and the empty kernel name is Epanechnikov. It
// fails unless the method is shardable and supports the kernel, so a
// coordinator can reject a job before it plans any shard.
func ShardMethod(name, kernelName string) (Method, error) {
	m := DefaultMethod
	if name != "" {
		var err error
		if m, err = ParseMethod(name); err != nil {
			return 0, err
		}
	}
	k, err := parseKernel(kernelName)
	if err != nil {
		return 0, err
	}
	if !m.spec().shardable {
		var names []string
		for i := range methodTable {
			if methodTable[i].shardable {
				names = append(names, methodTable[i].name)
			}
		}
		return 0, fmt.Errorf("kernreg: method %v is not shardable (want one of %s)", m, strings.Join(names, ", "))
	}
	_, err = m.spec().objective(config{kern: k})
	return m, err
}

// SelectShard runs one shard of a sharded selection: the method named
// by method and kernelName, resolved and checked by ShardMethod, over the
// explicit ascending candidate values grid (a contiguous slice of the
// full grid). The result is bit-identical to the same candidates'
// entries in a single run over the full grid. stable and keepScores are
// as for Stable and KeepScores.
func SelectShard(ctx context.Context, x, y, grid []float64, method, kernelName string, stable, keepScores bool) (Selection, error) {
	m, err := ShardMethod(method, kernelName)
	if err != nil {
		return Selection{}, err
	}
	if err := validateSample(x, y); err != nil {
		return Selection{}, err
	}
	g := bandwidth.Grid{H: grid}
	if err := g.Validate(); err != nil {
		return Selection{}, err
	}
	k, _ := parseKernel(kernelName) // checked by ShardMethod
	c := config{method: m, kern: k, gridSize: len(grid), stable: stable, keepScores: keepScores}
	return runMethod(ctx, x, y, g, c, m.spec().cv.run)
}

// parseKernel is kernel.Parse with the empty name meaning Epanechnikov.
func parseKernel(name string) (kernel.Kind, error) {
	if name == "" {
		return kernel.Epanechnikov, nil
	}
	return kernel.Parse(name)
}

// runMethod executes one runner and fills the Selection fields every method
// shares.
func runMethod(ctx context.Context, x, y []float64, g bandwidth.Grid, c config, fn runFunc) (Selection, error) {
	sel, err := fn(ctx, x, y, g, c)
	if err != nil {
		return Selection{}, err
	}
	sel.Method = c.method
	if g.H != nil {
		sel.Grid = append([]float64(nil), g.H...)
	}
	if !c.keepScores {
		sel.Scores = nil
	}
	return sel, nil
}
