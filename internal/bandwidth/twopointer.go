package bandwidth

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/kernel"
)

// The two-pointer sorted sweep. The paper's host algorithm (§III,
// Program 3) sorts each observation's neighbour distances independently,
// O(n log n) per observation and O(n² log n) total. In one dimension the
// per-observation sort is redundant: after a single global sort of X,
// observation i's neighbours ordered by |X_i − X_l| are exactly the merge
// of two already-sorted runs — positions i−1, i−2, … walking left (their
// distances X_i − X_l grow monotonically) and positions i+1, i+2, …
// walking right (likewise). Two pointers enumerate the merged order in
// O(n) per observation, so the whole grid search costs
// O(n log n + n·(n + k)) — the "globally sorted data + sliding sum
// updating" structure of Langrené & Warin (arXiv:1712.00993) applied to
// the paper's LOO-CV objective. The enumeration feeds the existing
// per-kernel sweep functions (sorted.go) unchanged: they only require
// distances ascending, not how that order was produced.
//
// Tie handling: neighbours at equal distance are emitted left-run-first.
// The per-observation QuickSort is unstable, so the incumbent sorted
// search's own tie order is already arbitrary; the prefix *multiset* at
// every bandwidth boundary is identical between the two enumerations
// (FuzzTwoPointerOrder pins this), and with the default compensated
// sums the re-association noise between tie orders is far inside the
// conformance harness's exact-class tolerance.

// twoPointerFill writes the neighbours of sorted position i into absd
// and yv, nearest-first, by merging the left and right runs of the
// globally sorted sample. len(absd) and len(yv) must be len(xs)-1.
func twoPointerFill(xs, ys []float64, i int, absd, yv []float64) {
	xi := xs[i]
	l, r := i-1, i+1
	n := len(xs)
	w := 0
	for l >= 0 && r < n {
		dl := xi - xs[l]
		dr := xs[r] - xi
		if dl <= dr {
			absd[w], yv[w] = dl, ys[l]
			l--
		} else {
			absd[w], yv[w] = dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		absd[w], yv[w] = xi-xs[l], ys[l]
		w++
	}
	for ; r < n; r++ {
		absd[w], yv[w] = xs[r]-xi, ys[r]
		w++
	}
}

// twoPointerFillLL is twoPointerFill with the signed distance
// δ = X_l − X_i emitted alongside, for the local-linear sweep. IEEE
// negation is exact, so −(X_i − X_l) for the left run is bit-identical
// to the X_l − X_i the argsort path computes.
func twoPointerFillLL(xs, ys []float64, i int, absd, delta, yv []float64) {
	xi := xs[i]
	l, r := i-1, i+1
	n := len(xs)
	w := 0
	for l >= 0 && r < n {
		dl := xi - xs[l]
		dr := xs[r] - xi
		if dl <= dr {
			absd[w], delta[w], yv[w] = dl, -dl, ys[l]
			l--
		} else {
			absd[w], delta[w], yv[w] = dr, dr, ys[r]
			r++
		}
		w++
	}
	for ; l >= 0; l-- {
		d := xi - xs[l]
		absd[w], delta[w], yv[w] = d, -d, ys[l]
		w++
	}
	for ; r < n; r++ {
		d := xs[r] - xi
		absd[w], delta[w], yv[w] = d, d, ys[r]
		w++
	}
}

// TwoPointerGridSearch runs the two-pointer sorted sweep in double
// precision for the compact-support kernels that admit the prefix-sum
// decomposition (Epanechnikov, Uniform, Triangular): one global sort,
// then an O(n + k) enumeration + sweep per observation. st selects the
// summation mode of the prefix sums (the same switch as SortedGridSearch).
// ctx is polled once per observation; cancellation returns ctx.Err() and
// a zero Result — never a partial selection.
func TwoPointerGridSearch(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability) (Result, error) {
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	r, err := TwoPointerGridSearchInto(ctx, x, y, g, k, st, ws)
	if err != nil {
		return Result{}, err
	}
	// Copy the scores out of the pooled accumulator so Result.Scores
	// stays valid after Release.
	r.Scores = append([]float64(nil), r.Scores...)
	return r, nil
}

// TwoPointerGridSearchInto is the zero-allocation form of
// TwoPointerGridSearch: every scratch slice, including the score vector,
// lives in ws, so a caller that acquires ws once (or pools it) performs
// no heap allocation per selection. Result.Scores aliases ws and is
// valid only until ws.Release(); callers that keep scores must copy them
// first.
func TwoPointerGridSearchInto(ctx context.Context, x, y []float64, g Grid, k kernel.Kind, st Stability, ws *Workspace) (Result, error) {
	if err := validateInputs(x, y, g); err != nil {
		return Result{}, err
	}
	sweep, err := sweepFunc(k, st)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := len(x)
	xs, ys := ws.sortSample(x, y)
	absd, yv := ws.neighbours(n - 1)
	scores := ws.zeroScores(g.Len())
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		twoPointerFill(xs, ys, i, absd, yv)
		sweep(absd, yv, ys[i], g.H, scores)
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}

// TwoPointerGridSearchParallel shards the two-pointer sweep for the
// Epanechnikov kernel across workers. The single globally sorted sample
// is shared read-only; each worker owns a pooled workspace (neighbour
// buffers plus a private score vector, so no two goroutines ever write
// the same cache line of an accumulator) and the per-shard partials are
// merged once at the end. workers <= 0 selects runtime.GOMAXPROCS(0) at
// call time; shard count is clamped to n. Every worker polls ctx once per
// observation; on cancellation the reduction is skipped and ctx.Err() is
// returned with a zero Result.
func TwoPointerGridSearchParallel(ctx context.Context, x, y []float64, g Grid, workers int, st Stability) (Result, error) {
	if err := validateInputs(x, y, g); err != nil {
		return Result{}, err
	}
	sweep, err := sweepFunc(kernel.Epanechnikov, st)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(x)
	if workers > n {
		workers = n
	}
	k := g.Len()
	// One global sort, shared read-only by every worker.
	ws := AcquireWorkspace(n, k)
	defer ws.Release()
	xs, ys := ws.sortSample(x, y)
	partial := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wws := AcquireWorkspace(n, k)
			defer wws.Release()
			absd, yv := wws.neighbours(n - 1)
			scores := wws.zeroScores(k)
			// Contiguous shards: adjacent observations walk overlapping
			// neighbour runs, so block assignment keeps each worker's
			// reads inside one warm region of the shared sorted array.
			lo := w * n / workers
			hi := (w + 1) * n / workers
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				twoPointerFill(xs, ys, i, absd, yv)
				sweep(absd, yv, ys[i], g.H, scores)
			}
			// Publish the shard's accumulator once, after the loop —
			// the only write that crosses goroutines before Wait.
			partial[w] = append([]float64(nil), scores...)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return mergePartials(g, partial, n), nil
}

// TwoPointerGridSearchLocalLinear runs the two-pointer sweep for the
// local-linear estimator with the Epanechnikov kernel — the "ll"
// analogue, feeding the nine-prefix-sum sweep of locallinear.go from
// the merged enumeration instead of a per-observation argsort. st
// selects the nine sums' summation mode; ctx is polled once per
// observation.
func TwoPointerGridSearchLocalLinear(ctx context.Context, x, y []float64, g Grid, st Stability) (Result, error) {
	if err := validateInputs(x, y, g); err != nil {
		return Result{}, err
	}
	sweep := localLinearSweepCompensated
	if st == Uncompensated {
		sweep = localLinearSweep
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := len(x)
	ws := AcquireWorkspace(n, g.Len())
	defer ws.Release()
	xs, ys := ws.sortSample(x, y)
	absd, yv := ws.neighbours(n - 1)
	delta := ws.deltas(n - 1)
	scores := ws.zeroScores(g.Len())
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		twoPointerFillLL(xs, ys, i, absd, delta, yv)
		sweep(absd, delta, yv, ys[i], g.H, scores)
	}
	out := append([]float64(nil), scores...)
	for j := range out {
		out[j] /= float64(n)
	}
	return Best(g, out), nil
}
