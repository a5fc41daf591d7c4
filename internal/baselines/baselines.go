// Package baselines implements the two comparison programs of the paper's
// evaluation (§IV.C):
//
//   - Program 1, "Racine & Hayfield": the R np package's approach —
//     least-squares cross-validation minimised by a standard derivative-free
//     numerical optimiser over the naive O(n²)-per-evaluation objective.
//   - Program 2, "Multicore R": the author's multicore R selector — the
//     same numerically-optimised objective with the O(n²) evaluation fanned
//     out across cores.
//
// Both share the failure mode the paper highlights: the CV objective is
// not concave, so the optimiser can converge to a non-global minimum that
// depends on its starting value (np's documentation suggests restarting
// from multiple initial values). The grid-search programs in internal/core
// do not have this failure mode; the reliability tests exercise exactly
// this contrast.
package baselines

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/optimize"
	"repro/internal/stats"
)

// Method selects the numerical optimiser, mirroring the choices R's
// optimize()/optim() offer.
type Method int

const (
	// Brent is R's optimize(): golden section + parabolic interpolation.
	Brent Method = iota
	// GoldenSection is the plain golden-section search.
	GoldenSection
	// NelderMead mirrors optim(method="Nelder-Mead") on one parameter.
	NelderMead
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Brent:
		return "brent"
	case GoldenSection:
		return "golden"
	case NelderMead:
		return "nelder-mead"
	default:
		return fmt.Sprintf("baselines.Method(%d)", int(m))
	}
}

// Options configures the numerical-optimisation selectors.
type Options struct {
	Kernel kernel.Kind
	Method Method
	// Starts is the number of multi-start restarts; 1 reproduces the
	// single-start behaviour whose local-minimum sensitivity the paper
	// criticises. 0 defaults to 1.
	Starts int
	// Lo, Hi bracket the search; zero values derive the paper's default
	// range from the data (domain of X down to domain/100).
	Lo, Hi float64
	// Tol is the x tolerance (default 1e-6 of the bracket width).
	Tol float64
	// Workers is the parallel fan-out for the multicore variant; 0 means
	// GOMAXPROCS.
	Workers int
}

// Result reports the selected bandwidth, its CV score, and the number of
// objective evaluations the optimiser spent (each one an O(n²) pass).
type Result struct {
	H     float64
	CV    float64
	Evals int
}

// bracket derives the search interval from the options or the data.
func (o Options) bracket(x []float64) (lo, hi float64) {
	lo, hi = o.Lo, o.Hi
	if lo <= 0 || hi <= 0 || lo >= hi {
		domain := stats.Range(x)
		lo = domain / 100
		hi = domain
	}
	return lo, hi
}

func (o Options) tolerance(lo, hi float64) float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return (hi - lo) * 1e-6
}

func (o Options) starts() int {
	if o.Starts < 1 {
		return 1
	}
	return o.Starts
}

// minimize dispatches on the configured method from a given start.
func (o Options) minimize(f optimize.Objective, x0, lo, hi, tol float64) (optimize.Result, error) {
	switch o.Method {
	case GoldenSection:
		return optimize.GoldenSection(f, lo, hi, tol, 0)
	case NelderMead:
		return optimize.NelderMead1D(f, x0, lo, hi, tol, 0)
	default:
		return optimize.Brent(f, lo, hi, tol, 0)
	}
}

// cvObjective builds the naive leave-one-out CV objective over the sample,
// counting evaluations.
func cvObjective(x, y []float64, k kernel.Kind, evals *int) optimize.Objective {
	return func(h float64) float64 {
		*evals++
		return naiveCV(x, y, h, k, 1)
	}
}

// SelectNumerical is Program 1: single-threaded numerical optimisation of
// the naive CV objective. ctx is polled once per objective evaluation
// (each one an O(n²) pass, the natural quantum of this selector). After
// cancellation every remaining evaluation short-circuits to +Inf, so the
// optimiser's bounded iteration winds down immediately and ctx.Err() is
// returned with a zero Result — never a partial selection.
func SelectNumerical(ctx context.Context, x, y []float64, opt Options) (Result, error) {
	if err := check(x, y); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	lo, hi := opt.bracket(x)
	tol := opt.tolerance(lo, hi)
	evals := 0
	inner := cvObjective(x, y, opt.Kernel, &evals)
	f, cancelled := cancellableObjective(ctx, inner)
	r, err := runStarts(f, lo, hi, tol, opt)
	if cerr := *cancelled; cerr != nil {
		return Result{}, cerr
	}
	if err != nil {
		return Result{}, err
	}
	return Result{H: r.X, CV: r.F, Evals: evals}, nil
}

// SelectNumericalParallel is Program 2: the same optimisation with each
// O(n²) objective evaluation split across workers — the multicore R
// program's structure (parallel over observations inside one evaluation,
// sequential across optimiser iterations, which are inherently serial).
// Cancellation is polled per evaluation, as for SelectNumerical.
func SelectNumericalParallel(ctx context.Context, x, y []float64, opt Options) (Result, error) {
	if err := check(x, y); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lo, hi := opt.bracket(x)
	tol := opt.tolerance(lo, hi)
	evals := 0
	inner := func(h float64) float64 {
		evals++
		return naiveCV(x, y, h, opt.Kernel, workers)
	}
	f, cancelled := cancellableObjective(ctx, inner)
	r, err := runStarts(f, lo, hi, tol, opt)
	if cerr := *cancelled; cerr != nil {
		return Result{}, cerr
	}
	if err != nil {
		return Result{}, err
	}
	return Result{H: r.X, CV: r.F, Evals: evals}, nil
}

// cancellableObjective wraps an objective so that once ctx is cancelled,
// no further O(n²) evaluation runs: the wrapper latches the context
// error and returns +Inf, which every supported optimiser treats as
// infeasible and drives to a quick, bounded exit. The latched error is
// reported through the returned pointer.
func cancellableObjective(ctx context.Context, f optimize.Objective) (optimize.Objective, *error) {
	var cancelled error
	wrapped := func(h float64) float64 {
		if cancelled == nil {
			cancelled = ctx.Err()
		}
		if cancelled != nil {
			return math.Inf(1)
		}
		return f(h)
	}
	return wrapped, &cancelled
}

// runStarts runs the configured optimiser from the configured number of
// starting points.
func runStarts(f optimize.Objective, lo, hi, tol float64, opt Options) (optimize.Result, error) {
	if opt.starts() == 1 {
		mid := lo + (hi-lo)/2
		return opt.minimize(f, mid, lo, hi, tol)
	}
	return optimize.MultiStart(f, lo, hi, opt.starts(), func(f optimize.Objective, x0 float64) (optimize.Result, error) {
		// Multi-start shrinks each run's bracket around its start for
		// the bracketing methods, so different starts actually explore
		// different basins (a full-bracket Brent would revisit the
		// same minimum every time).
		span := (hi - lo) / float64(opt.starts())
		blo := math.Max(lo, x0-span)
		bhi := math.Min(hi, x0+span)
		return opt.minimize(f, x0, blo, bhi, tol)
	})
}

// naiveCV computes the leave-one-out CV score with the O(n²) double loop,
// optionally splitting the outer loop across workers.
func naiveCV(x, y []float64, h float64, k kernel.Kind, workers int) float64 {
	if !(h > 0) {
		return math.Inf(1)
	}
	n := len(x)
	if workers <= 1 || n < 256 {
		return cvChunk(x, y, h, k, 0, n) / float64(n)
	}
	if workers > n {
		workers = n
	}
	partial := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partial[w] = cvChunk(x, y, h, k, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partial {
		total += p
	}
	return total / float64(n)
}

// cvChunk accumulates Σ (Y_i − ĝ_{−i}(X_i))²·M(X_i) over i in [lo, hi).
func cvChunk(x, y []float64, h float64, k kernel.Kind, lo, hi int) float64 {
	var total float64
	n := len(x)
	for i := lo; i < hi; i++ {
		var num, den float64
		xi := x[i]
		for l := 0; l < n; l++ {
			if l == i {
				continue
			}
			w := k.Weight((xi - x[l]) / h)
			num += y[l] * w
			den += w
		}
		if den > 0 {
			d := y[i] - num/den
			total += d * d
		}
	}
	return total
}

func check(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("baselines: X has %d observations, Y has %d", len(x), len(y))
	}
	if len(x) < 2 {
		return fmt.Errorf("baselines: need at least 2 observations, have %d", len(x))
	}
	return nil
}
