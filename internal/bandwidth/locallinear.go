package bandwidth

import (
	"context"
	"math"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/sortx"
)

// Local-linear cross-validation. The R np package the paper benchmarks
// against offers both regression types (regtype="lc" local-constant,
// regtype="ll" local-linear); this file provides the "ll" objective and
// shows that the paper's sorted incremental trick extends to it: the
// weighted-least-squares moments are polynomials in the signed distance
// δ = X_i − X_l and in δ²/h², so nine prefix sums over the |δ|-sorted
// neighbours evaluate the whole ascending bandwidth grid in one sweep
// per observation.

// looLocalLinear computes the leave-one-out local-linear estimate at
// x[i], returning (estimate, ok).
//
//kernvet:ignore compsum -- naive reference oracle: the conformance harness pins these plain WLS moment sums; the stable fast path is localLinearSweepCompensated
func looLocalLinear(x, y []float64, i int, h float64, k kernel.Kind) (float64, bool) {
	var s0, s1, s2, t0, t1 float64
	xi := x[i]
	for l := range x {
		if l == i {
			continue
		}
		w := k.Weight((xi - x[l]) / h)
		if w == 0 {
			continue
		}
		d := x[l] - xi
		s0 += w
		s1 += w * d
		s2 += w * d * d
		t0 += w * y[l]
		t1 += w * d * y[l]
	}
	if s0 <= 0 {
		return math.NaN(), false
	}
	det := s0*s2 - s1*s1
	// Relative singularity guard: by Cauchy–Schwarz det ≥ 0, and when it
	// is a tiny fraction of s0·s2 the slope is numerically unidentified —
	// fall back to the local-constant value. The guard must match the
	// sorted sweep's so that both paths agree bitwise in intent.
	if !(det > llDetTol*s0*s2) {
		return t0 / s0, true
	}
	return (s2*t0 - s1*t1) / det, true
}

// llDetTol is the relative determinant threshold below which the local
// WLS design is treated as singular.
const llDetTol = 1e-8

// CVScoreLocalLinear evaluates the leave-one-out CV objective for the
// local-linear estimator at a single bandwidth, O(n²). Non-positive h
// scores +Inf.
func CVScoreLocalLinear(x, y []float64, h float64, k kernel.Kind) float64 {
	s, _ := cvScoreLocalLinearContext(context.Background(), x, y, h, k)
	return s
}

// cvScoreLocalLinearContext is CVScoreLocalLinear with a cancellation
// poll per observation; the check only early-exits, so a completed
// evaluation is arithmetically identical.
//
//kernvet:ignore compsum -- naive reference oracle: plain residual sum is the arithmetic the conformance harness compares fast paths against
func cvScoreLocalLinearContext(ctx context.Context, x, y []float64, h float64, k kernel.Kind) (float64, error) {
	if !(h > 0) {
		return math.Inf(1), nil
	}
	n := len(x)
	var total float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		g, ok := looLocalLinear(x, y, i, h, k)
		if ok {
			r := y[i] - g
			total += r * r
		}
	}
	return total / float64(n), nil
}

// NaiveGridSearchLocalLinear evaluates CVScoreLocalLinear independently
// per grid point, for any kernel, polling ctx once per observation of
// each evaluation. Cancellation returns ctx.Err() and a zero Result.
func NaiveGridSearchLocalLinear(ctx context.Context, x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	if err := validateInputs(x, y, g); err != nil {
		return Result{}, err
	}
	scores := make([]float64, g.Len())
	for j, h := range g.H {
		s, err := cvScoreLocalLinearContext(ctx, x, y, h, k)
		if err != nil {
			return Result{}, err
		}
		scores[j] = s
	}
	return Best(g, scores), nil
}

// llWorkspace carries the signed-distance payloads for the local-linear
// sweep.
type llWorkspace struct {
	absd  []float64 // |δ|, sort key
	delta []float64 // signed δ = X_l − X_i
	yv    []float64 // Y_l
}

func newLLWorkspace(n int) *llWorkspace {
	return &llWorkspace{
		absd:  make([]float64, 0, n),
		delta: make([]float64, 0, n),
		yv:    make([]float64, 0, n),
	}
}

func (ws *llWorkspace) fill(x, y []float64, i int) {
	ws.absd = ws.absd[:0]
	ws.delta = ws.delta[:0]
	ws.yv = ws.yv[:0]
	xi := x[i]
	for l, xl := range x {
		if l == i {
			continue
		}
		d := xl - xi
		a := d
		if a < 0 {
			a = -a
		}
		ws.absd = append(ws.absd, a)
		ws.delta = append(ws.delta, d)
		ws.yv = append(ws.yv, y[l])
	}
	// Co-sort three arrays: argsort the keys once, permute in place via
	// scratch copies (n is small enough per observation for this to be
	// the clear approach).
	idx := sortx.ArgSort64(ws.absd)
	permute(ws.absd, idx)
	permute(ws.delta, idx)
	permute(ws.yv, idx)
}

// permute reorders xs by idx using a scratch copy.
func permute(xs []float64, idx []int) {
	tmp := make([]float64, len(xs))
	for p, q := range idx {
		tmp[p] = xs[q]
	}
	copy(xs, tmp)
}

// localLinearSweep accumulates squared LOO residuals for every grid
// bandwidth using the Epanechnikov prefix decomposition. With w =
// 0.75(1 − δ²/h²) on |δ| ≤ h, the WLS moments factor as
//
//	s0 = 0.75(c    − S_d2/h²)      s1 = 0.75(S_δ   − S_δ3/h²)
//	s2 = 0.75(S_d2 − S_d4/h²)      t0 = 0.75(S_y   − S_yd2/h²)
//	t1 = 0.75(S_yδ − S_yδ3/h²)
//
// so nine running sums suffice across the ascending grid.
//
//kernvet:ignore compsum -- plain-arithmetic ablation pinned by the conformance harness; the stable path is localLinearSweepCompensated
func localLinearSweep(absd, delta, yv []float64, yi float64, grid, scores []float64) {
	var cnt, sD2, sD4, sDelta, sDelta3, sY, sYD2, sYDelta, sYDelta3 float64
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			d := delta[ptr]
			d2 := d * d
			yl := yv[ptr]
			cnt++
			sD2 += d2
			sD4 += d2 * d2
			sDelta += d
			sDelta3 += d2 * d
			sY += yl
			sYD2 += yl * d2
			sYDelta += yl * d
			sYDelta3 += yl * d2 * d
			ptr++
		}
		h2 := h * h
		s0 := 0.75 * (cnt - sD2/h2)
		if s0 <= 0 {
			continue
		}
		s1 := 0.75 * (sDelta - sDelta3/h2)
		s2 := 0.75 * (sD2 - sD4/h2)
		t0 := 0.75 * (sY - sYD2/h2)
		t1 := 0.75 * (sYDelta - sYDelta3/h2)
		det := s0*s2 - s1*s1
		var g float64
		if !(det > llDetTol*s0*s2) {
			g = t0 / s0
		} else {
			g = (s2*t0 - s1*t1) / det
		}
		r := yi - g
		scores[j] += r * r
	}
}

// localLinearSweepCompensated is localLinearSweep with Neumaier
// accumulation for all nine prefix sums. The WLS moments mix signs (δ and
// δ³ sums cancel around symmetric neighbourhoods, and offset Y inflates
// the t-moments), so the local-linear sweep is even more exposed to
// fast-sum-updating cancellation than the local-constant one.
func localLinearSweepCompensated(absd, delta, yv []float64, yi float64, grid, scores []float64) {
	var cnt float64
	var sD2, sD4, sDelta, sDelta3, sY, sYD2, sYDelta, sYDelta3 mathx.NeumaierAccumulator
	ptr := 0
	m := len(absd)
	for j, h := range grid {
		for ptr < m && absd[ptr] <= h {
			d := delta[ptr]
			d2 := d * d
			yl := yv[ptr]
			cnt++
			sD2.Add(d2)
			sD4.Add(d2 * d2)
			sDelta.Add(d)
			sDelta3.Add(d2 * d)
			sY.Add(yl)
			sYD2.Add(yl * d2)
			sYDelta.Add(yl * d)
			sYDelta3.Add(yl * d2 * d)
			ptr++
		}
		h2 := h * h
		s0 := 0.75 * (cnt - sD2.Sum()/h2)
		if s0 <= 0 {
			continue
		}
		s1 := 0.75 * (sDelta.Sum() - sDelta3.Sum()/h2)
		s2 := 0.75 * (sD2.Sum() - sD4.Sum()/h2)
		t0 := 0.75 * (sY.Sum() - sYD2.Sum()/h2)
		t1 := 0.75 * (sYDelta.Sum() - sYDelta3.Sum()/h2)
		det := s0*s2 - s1*s1
		var g float64
		if !(det > llDetTol*s0*s2) {
			g = t0 / s0
		} else {
			g = (s2*t0 - s1*t1) / det
		}
		r := yi - g
		scores[j] += r * r
	}
}

// SortedGridSearchLocalLinear runs the sorted incremental grid search for
// the local-linear estimator with the Epanechnikov kernel — the "ll"
// analogue of SortedGridSearch, demonstrating that the paper's technique
// is not specific to the local-constant estimator. st selects the nine
// sums' summation mode; ctx is polled once per observation like the
// local-constant sorted search.
func SortedGridSearchLocalLinear(ctx context.Context, x, y []float64, g Grid, st Stability) (Result, error) {
	if err := validateInputs(x, y, g); err != nil {
		return Result{}, err
	}
	sweep := localLinearSweepCompensated
	if st == Uncompensated {
		sweep = localLinearSweep
	}
	n := len(x)
	scores := make([]float64, g.Len())
	ws := newLLWorkspace(n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		ws.fill(x, y, i)
		sweep(ws.absd, ws.delta, ws.yv, y[i], g.H, scores)
	}
	for j := range scores {
		scores[j] /= float64(n)
	}
	return Best(g, scores), nil
}
