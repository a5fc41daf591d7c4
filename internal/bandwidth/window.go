package bandwidth

import (
	"context"
	"fmt"

	"repro/internal/kernel"
)

// The window-sum sweep: Langrené & Warin's fast sum updating
// (arXiv:1712.00993) applied to the paper's LOO-CV objective. After one
// global sort of (X, Y), observation i's in-range neighbours at a fixed
// bandwidth h are the contiguous run [lo_i, hi_i) of the sorted sample,
// and both ends only move right as i grows. The kernel sums factor into
// window sums of a few moments of (u, y), u = X − c for an anchor c:
//
//	Σ d²   = Σu²  − δ·(2Σu  − m·δ)        δ = X_i − c, m = window count
//	Σ y·d² = Σyu² − δ·(2Σyu − δ·Σy)
//
// (Epanechnikov), and for the Triangular kernel the same first-order
// identities over the left and right half-windows, where |d| is δ − u
// and u − δ respectively. Each bandwidth is therefore one O(n) pass of
// two monotone pointers and sliding add/remove updates, and the whole
// grid costs O(n log n + k·n) instead of the Θ(n²) of the two-pointer
// sweep.
//
// Stability. Expanding (u − δ)² cancels in proportion to (|u| + |δ|)²/h²,
// so with a single global anchor the error would grow like (spread/h)²
// and a large offset on X would destroy it entirely. The sweep keeps the
// anchor local instead. When X_i − c exceeds h it re-anchors at
// c = X_i + h and rebuilds the window sums from scratch about the new
// anchor, so |δ| ≤ h at every evaluation and every term added since the
// last rebuild has |u| < 2h. Consecutive anchors are more than 2h apart,
// so each point lies in at most one rebuilt window: rebuilding costs at
// most n updates per pass, next to the n adds and n removes. The window
// sums are compensated (TwoSum) running sums, so sliding adds and
// removes do not accumulate error. Writing ε = 2⁻⁵³ and m for the window
// count, a first-order bound over the rounding of u, of the terms, of the
// sums and of the recombination gives
//
//	|err(Σ d²)|   ≤ 50·ε·m·h²
//	|err(Σ y·d²)| ≤ 50·ε·h²·Σ|y|
//
// and for the Triangular sums |err(Σ|d|)| ≤ 12·ε·m·h and
// |err(Σ y·|d|)| ≤ 12·ε·h·Σ|y|, all over the window. That is a fixed
// multiple of the sorted sweep's own rounding of the same sums (about
// 2·ε·m·h²), independent of spread/h and of any offset on X. What remains
// is the conditioning every selector shares: a denominator Σ(1 − d²/h²)
// whose terms all sit within ulps of the kernel boundary.
//
// Boundary semantics. Epanechnikov and Triangular weights vanish at
// |d| = h, so the window holds |d| < h strictly: a boundary term is
// absorbed exactly rather than rebuilt by cancellation as a spurious
// ~1-ulp weight. Uniform keeps the sorted sweeps' |d| ≤ h, where the
// boundary weight is not zero.
//
// Every bandwidth is an independent pass over the same sorted sample —
// no state carries from one grid point to the next — so a grid shard
// reproduces the full-grid scores at its points bit for bit.

// twoSum is a compensated running sum built on Knuth's branch-free
// TwoSum: the rounding error of every addition is carried exactly in c.
// Unlike mathx.NeumaierAccumulator it has no data-dependent branch,
// which matters in a loop that adds and removes terms in equal measure,
// and it is a two-field value, so the passes below keep every window
// sum in registers.
type twoSum struct{ s, c float64 }

func (a twoSum) plus(t float64) twoSum {
	s := a.s + t
	bp := s - a.s
	return twoSum{s, a.c + ((a.s - (s - bp)) + (t - bp))}
}

func (a twoSum) sum() float64 { return a.s + a.c }

// The passes below return n·CV(h) for one bandwidth. Each spells out
// its window updates at every site (add at hi, remove at lo, rebuild)
// rather than calling a helper over a struct of sums: the sums then
// stay in registers, which is most of the pass's speed. A removal
// subtracts exactly the float terms the addition folded in (same u,
// same y), so a point that leaves the window takes its contribution
// with it.

// epanechnikovWindowPass carries Σy, Σu, Σu², Σy·u and Σy·u² over the
// window [lo, hi), which holds observation i itself (its d is exactly
// 0, so it drops out of Σd² and Σy·d², and is subtracted from Σy).
func epanechnikovWindowPass(xs, ys []float64, h float64) float64 {
	n := len(xs)
	ih2 := 1 / (h * h)
	var sy, su, su2, syu, syu2, total twoSum
	c := xs[0]
	lo, hi := 0, 0
	for i, xi := range xs {
		rebuild := xi-c > h
		for ; hi < n && xs[hi]-xi < h; hi++ {
			if !rebuild {
				u, y := xs[hi]-c, ys[hi]
				yu := y * u
				sy, su, su2, syu, syu2 = sy.plus(y), su.plus(u), su2.plus(u*u), syu.plus(yu), syu2.plus(yu*u)
			}
		}
		for ; xi-xs[lo] >= h; lo++ {
			if !rebuild {
				u, y := xs[lo]-c, ys[lo]
				yu := y * u
				sy, su, su2, syu, syu2 = sy.plus(-y), su.plus(-u), su2.plus(-(u * u)), syu.plus(-yu), syu2.plus(-(yu * u))
			}
		}
		if rebuild {
			c = xi + h
			sy, su, su2, syu, syu2 = twoSum{}, twoSum{}, twoSum{}, twoSum{}, twoSum{}
			for l := lo; l < hi; l++ {
				u, y := xs[l]-c, ys[l]
				yu := y * u
				sy, su, su2, syu, syu2 = sy.plus(y), su.plus(u), su2.plus(u*u), syu.plus(yu), syu2.plus(yu*u)
			}
		}
		m := hi - lo
		if m < 2 {
			continue
		}
		yi := ys[i]
		d := xi - c
		sd2 := su2.sum() - d*(2*su.sum()-float64(m)*d)
		den := float64(m-1) - sd2*ih2
		if den > 0 {
			syd2 := syu2.sum() - d*(2*syu.sum()-d*sy.sum())
			num := (sy.sum() - yi) - syd2*ih2
			r := yi - num/den
			total = total.plus(r * r)
		}
	}
	return total.sum()
}

// triangularWindowPass carries Σy, Σu and Σy·u over the left half
// [lo, i) and the right half [i+1, hi) separately, because |d| changes
// sign at i.
func triangularWindowPass(xs, ys []float64, h float64) float64 {
	n := len(xs)
	var ly, lu, lyu, ry, ru, ryu, total twoSum
	c := xs[0]
	lo, hi := 0, 0
	for i, xi := range xs {
		rebuild := xi-c > h
		if !rebuild && i > 0 {
			u, y := xs[i-1]-c, ys[i-1]
			ly, lu, lyu = ly.plus(y), lu.plus(u), lyu.plus(y*u)
		}
		if hi <= i {
			hi = i + 1
		} else if !rebuild {
			u, y := xs[i]-c, ys[i]
			ry, ru, ryu = ry.plus(-y), ru.plus(-u), ryu.plus(-(y * u))
		}
		for ; hi < n && xs[hi]-xi < h; hi++ {
			if !rebuild {
				u, y := xs[hi]-c, ys[hi]
				ry, ru, ryu = ry.plus(y), ru.plus(u), ryu.plus(y*u)
			}
		}
		for ; xi-xs[lo] >= h; lo++ {
			if !rebuild {
				u, y := xs[lo]-c, ys[lo]
				ly, lu, lyu = ly.plus(-y), lu.plus(-u), lyu.plus(-(y * u))
			}
		}
		if rebuild {
			c = xi + h
			ly, lu, lyu, ry, ru, ryu = twoSum{}, twoSum{}, twoSum{}, twoSum{}, twoSum{}, twoSum{}
			for l := lo; l < i; l++ {
				u, y := xs[l]-c, ys[l]
				ly, lu, lyu = ly.plus(y), lu.plus(u), lyu.plus(y*u)
			}
			for l := i + 1; l < hi; l++ {
				u, y := xs[l]-c, ys[l]
				ry, ru, ryu = ry.plus(y), ru.plus(u), ryu.plus(y*u)
			}
		}
		nl, nr := i-lo, hi-i-1
		if nl+nr == 0 {
			continue
		}
		yi := ys[i]
		d := xi - c
		sad := (float64(nl)*d - lu.sum()) + (ru.sum() - float64(nr)*d)
		den := float64(nl+nr) - sad/h
		if den > 0 {
			syad := (d*ly.sum() - lyu.sum()) + (ryu.sum() - d*ry.sum())
			num := (ly.sum() + ry.sum()) - syad/h
			r := yi - num/den
			total = total.plus(r * r)
		}
	}
	return total.sum()
}

// uniformWindowPass carries Σy over |d| ≤ h. It involves no anchor, so
// the window never rebuilds.
func uniformWindowPass(xs, ys []float64, h float64) float64 {
	n := len(xs)
	var sy, total twoSum
	lo, hi := 0, 0
	for i, xi := range xs {
		for ; hi < n && xs[hi]-xi <= h; hi++ {
			sy = sy.plus(ys[hi])
		}
		for ; xi-xs[lo] > h; lo++ {
			sy = sy.plus(-ys[lo])
		}
		cnt := hi - lo - 1
		if cnt == 0 {
			continue
		}
		yi := ys[i]
		r := yi - (sy.sum()-yi)/float64(cnt)
		total = total.plus(r * r)
	}
	return total.sum()
}

// windowPassFunc returns the per-bandwidth pass for a compact kernel.
func windowPassFunc(k kernel.Kind) (func(xs, ys []float64, h float64) float64, error) {
	switch k {
	case kernel.Epanechnikov:
		return epanechnikovWindowPass, nil
	case kernel.Uniform:
		return uniformWindowPass, nil
	case kernel.Triangular:
		return triangularWindowPass, nil
	default:
		return nil, fmt.Errorf("bandwidth: window grid search requires a compact prefix-decomposable kernel, %v is not supported", k)
	}
}

// WindowGridSearch runs the window-sum sweep: one pooled co-sort of
// (X, Y), then one O(n) pass per grid bandwidth, O(n log n + k·n) in
// all. It supports the Epanechnikov, Uniform and Triangular kernels and
// computes the same objective as NaiveGridSearch to within the bound in
// the comment above.
func WindowGridSearch(x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	return WindowGridSearchContext(context.Background(), x, y, g, k)
}

// WindowGridSearchContext is WindowGridSearch with cooperative
// cancellation, polled once per bandwidth pass. Cancellation returns
// ctx.Err() and a zero Result — never a partial selection.
func WindowGridSearchContext(ctx context.Context, x, y []float64, g Grid, k kernel.Kind) (Result, error) {
	if err := validateSample(x, y); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	pass, err := windowPassFunc(k)
	if err != nil {
		return Result{}, err
	}
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	xs, ys := ws.sortSample(x, y)
	scores := ws.zeroScores(g.Len())
	n := float64(len(x))
	for j, h := range g.H {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		scores[j] = pass(xs, ys, h) / n
	}
	// Copy the scores out of the pooled accumulator so Result.Scores
	// stays valid after Release.
	return Best(g, append([]float64(nil), scores...)), nil
}
