package conformance

import (
	"math"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/data"
)

// Dataset is one differential-testing case: a sample plus the explicit
// grid every selector runs on. Grids are always constructed through
// bandwidth.NewGrid(GridMin, GridMax, K) so that the internal selectors
// and the public kernreg.GridRange path operate on bit-identical
// candidate bandwidths.
type Dataset struct {
	// Name identifies the case in the agreement matrix.
	Name string
	// X, Y are the sample. Selectors must treat them as read-only.
	X, Y []float64
	// GridMin, GridMax, K describe the candidate grid.
	GridMin, GridMax float64
	K                int
	// Heavy marks the large-n cases skipped under `go test -short` and
	// in race-mode smoke runs, where the functional device simulation
	// dominates the runtime.
	Heavy bool
	// Float64Only marks samples float32 cannot represent (X needs more
	// than float32's 24 significant bits to resolve the distances);
	// the Float32-class selectors skip them.
	Float64Only bool
}

// Grid materialises the dataset's candidate grid.
func (d Dataset) Grid() (bandwidth.Grid, error) {
	return bandwidth.NewGrid(d.GridMin, d.GridMax, d.K)
}

// N returns the sample size.
func (d Dataset) N() int { return len(d.X) }

// paperRange mirrors bandwidth.DefaultGrid's endpoints: maximum
// bandwidth = the domain of X, minimum = domain/k (§IV of the paper).
func paperRange(x []float64, k int) (float64, float64) {
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	domain := hi - lo
	return domain / float64(k), domain
}

// dgpCase draws n observations from one of the package data DGPs and
// attaches the paper's default grid range.
func dgpCase(name string, g data.DGP, n int, seed int64, k int) Dataset {
	d := data.Generate(g, n, seed)
	min, max := paperRange(d.X, k)
	return Dataset{Name: name, X: d.X, Y: d.Y, GridMin: min, GridMax: max, K: k, Heavy: n > 1024}
}

// Corpus returns the deterministic dataset corpus. Every case is built
// from fixed seeds, so the agreement matrix is reproducible bit for bit
// across runs and machines. The shapes deliberately stress the places
// where an incremental-sum shortcut could diverge from the naive
// objective: duplicate distances (sort ties), clustered X (zero
// denominators at small h), constant Y (zero residuals everywhere),
// extreme Y scales (float32 rounding), and boundary sample sizes.
func Corpus() []Dataset {
	rng := rand.New(rand.NewSource(20170529)) // the paper's conference date; fixed forever
	cases := []Dataset{
		// The six synthetic DGPs at a moderate size.
		dgpCase("paper-64", data.Paper, 64, 1, 16),
		dgpCase("sine-64", data.Sine, 64, 2, 16),
		dgpCase("step-64", data.Step, 64, 3, 16),
		dgpCase("hetero-64", data.Hetero, 64, 4, 16),
		dgpCase("linear-64", data.Linear, 64, 5, 16),
		dgpCase("clustered-128", data.Clustered, 128, 6, 24),
		// Larger paper-DGP cases, including one past a thousand.
		dgpCase("paper-512", data.Paper, 512, 7, 32),
		dgpCase("paper-1500", data.Paper, 1500, 8, 25),
		dgpCase("paper-2500", data.Paper, 2500, 9, 20),
	}

	// Duplicate X values: many observations share exact grid positions,
	// so the per-observation distance vectors contain long runs of equal
	// sort keys — the non-stable QuickSort visits them in
	// permutation-dependent order.
	{
		n := 120
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%12) / 12
			y[i] = math.Sin(float64(i)) + 0.1*rng.NormFloat64()
		}
		cases = append(cases, Dataset{Name: "duplicate-x", X: x, Y: y, GridMin: 1.0 / 16, GridMax: 1, K: 16})
	}

	// Every X duplicated exactly once with differing Y: distance zero
	// pairs keep the leave-one-out denominator positive at any h.
	{
		n := 80
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i += 2 {
			v := float64(i) / float64(n)
			x[i], x[i+1] = v, v
			y[i], y[i+1] = v, -v
		}
		cases = append(cases, Dataset{Name: "paired-x", X: x, Y: y, GridMin: 0.05, GridMax: 1, K: 20})
	}

	// Constant Y: every residual is exactly zero, so CV(h) = 0 on the
	// whole grid and the tie-break (lowest index) is what's under test.
	{
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = 7.25
		}
		min, max := paperRange(x, 16)
		cases = append(cases, Dataset{Name: "constant-y", X: x, Y: y, GridMin: min, GridMax: max, K: 16})
	}

	// Constant Y = 0, clustered X: zero scores *and* zero denominators.
	{
		x := []float64{0, 0.001, 0.002, 0.9, 0.901, 0.902}
		y := make([]float64, len(x))
		cases = append(cases, Dataset{Name: "constant-zero-y", X: x, Y: y, GridMin: 0.0005, GridMax: 1.2, K: 12})
	}

	// Near-zero denominators: two tight clusters plus a remote isolated
	// point; for most of the grid the isolated observation has no
	// neighbours in range and the M(X_i) indicator must drop it, in both
	// precisions.
	{
		var x, y []float64
		for i := 0; i < 30; i++ {
			x = append(x, 0.25+0.004*rng.NormFloat64())
			y = append(y, 1+0.05*rng.NormFloat64())
		}
		for i := 0; i < 30; i++ {
			x = append(x, 0.75+0.004*rng.NormFloat64())
			y = append(y, -1+0.05*rng.NormFloat64())
		}
		x = append(x, 40)
		y = append(y, 5)
		cases = append(cases, Dataset{Name: "isolated-point", X: x, Y: y, GridMin: 0.01, GridMax: 2, K: 25})
	}

	// Heavy-tailed X (Cauchy-style draws): the domain is enormous
	// relative to the interquartile range, so most grid bandwidths see
	// only a handful of in-range neighbours.
	{
		n := 96
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			u := rng.Float64()
			x[i] = math.Tan(math.Pi * (u - 0.5) * 0.98) // clip the extreme 1% of tails
			y[i] = math.Atan(x[i]) + 0.1*rng.NormFloat64()
		}
		min, max := paperRange(x, 20)
		cases = append(cases, Dataset{Name: "heavy-tail-x", X: x, Y: y, GridMin: min, GridMax: max, K: 20})
	}

	// Extreme Y magnitudes in both directions: float32 narrowing loses
	// ~half the mantissa of 1e6-scale values, which the Float32 policy
	// must absorb without the Exact classes drifting.
	{
		n := 60
		x := make([]float64, n)
		yBig := make([]float64, n)
		yTiny := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			base := 2*x[i] + 0.3*rng.NormFloat64()
			yBig[i] = 1e6 * base
			yTiny[i] = 1e-6 * base
		}
		min, max := paperRange(x, 16)
		cases = append(cases,
			Dataset{Name: "big-y", X: x, Y: yBig, GridMin: min, GridMax: max, K: 16},
			Dataset{Name: "tiny-y", X: x, Y: yTiny, GridMin: min, GridMax: max, K: 16},
		)
	}

	// Negative and shifted X: nothing in the objective depends on the
	// sign of X, but sloppy |d| handling would.
	{
		n := 70
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = -5 + 3*rng.Float64()
			y[i] = x[i]*x[i] + 0.2*rng.NormFloat64()
		}
		min, max := paperRange(x, 18)
		cases = append(cases, Dataset{Name: "negative-x", X: x, Y: y, GridMin: min, GridMax: max, K: 18})
	}

	// Pre-sorted and reverse-sorted X: adversarial input orders for the
	// per-observation QuickSort.
	{
		n := 100
		asc := make([]float64, n)
		desc := make([]float64, n)
		y := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i) / float64(n)
			desc[i] = float64(n-i) / float64(n)
			y[i] = math.Cos(3 * asc[i])
		}
		cases = append(cases,
			Dataset{Name: "sorted-x", X: asc, Y: y, GridMin: 1.0 / 16, GridMax: 1, K: 16},
			Dataset{Name: "reverse-x", X: desc, Y: y, GridMin: 1.0 / 16, GridMax: 1, K: 16},
		)
	}

	// Boundary ties, exactly representable: X on multiples of 1/8 and a
	// grid on multiples of 1/4, so many |Xi−Xl| land *exactly* on a grid
	// bandwidth in float64 and survive the float32 narrowing unchanged.
	// The in-range test is `d <= h`, so these terms are included — but
	// the Epanechnikov weight vanishes at |d| = h, so inclusion
	// contributes only O(ε) and every precision must agree (the policy's
	// boundary-tie coverage; see policy.go).
	{
		n := 64
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%16) * 0.125
			y[i] = math.Sin(2*x[i]) + 0.1*rng.NormFloat64()
		}
		cases = append(cases, Dataset{Name: "boundary-ties", X: x, Y: y, GridMin: 0.25, GridMax: 2, K: 8})
	}

	// Boundary ties, inexact: X spaced 0.1 apart and a grid stepping 0.1
	// — neither is a binary fraction, so whether d == h, d < h, or d > h
	// can differ between float64 and the float32 images the device
	// compares. The kernel weight still vanishes toward |d| = h, so the
	// discrepancy stays inside the Float32 tolerance class.
	{
		n := 60
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%10) * 0.1
			y[i] = math.Cos(3*x[i]) + 0.1*rng.NormFloat64()
		}
		cases = append(cases, Dataset{Name: "boundary-ties-inexact", X: x, Y: y, GridMin: 0.1, GridMax: 1, K: 10})
	}

	// Fully degenerate: the observations sit 10 apart while the grid tops
	// out at h = 1, so no observation has any leave-one-out neighbour in
	// range — den ≤ 0 for every bandwidth at every observation (the
	// paper's M(X_i) mask kills every term). Every selector must agree on
	// the all-zero score vector and break the tie at index 0.
	cases = append(cases,
		Dataset{Name: "all-out-of-range", X: []float64{0, 10, 20}, Y: []float64{1, 2, 3}, GridMin: 0.1, GridMax: 1, K: 8},
	)

	// Boundary sample sizes.
	cases = append(cases,
		Dataset{Name: "n2", X: []float64{0.2, 0.8}, Y: []float64{1, 2}, GridMin: 0.1, GridMax: 1, K: 8},
		Dataset{Name: "n3", X: []float64{0.1, 0.5, 0.9}, Y: []float64{0, 1, 0}, GridMin: 0.1, GridMax: 1, K: 8},
	)

	// Single-point grid: no search at all, just the objective at one h.
	{
		d := data.Generate(data.Paper, 40, 11)
		cases = append(cases, Dataset{Name: "k1", X: d.X, Y: d.Y, GridMin: 0.3, GridMax: 0.3, K: 1})
	}

	// Dense grid relative to n: more bandwidths than observations.
	{
		d := data.Generate(data.Sine, 48, 12)
		min, max := paperRange(d.X, 128)
		cases = append(cases, Dataset{Name: "dense-grid", X: d.X, Y: d.Y, GridMin: min, GridMax: max, K: 128})
	}

	return append(cases, windowCases()...)
}

// windowCases are the adversarial shapes for the window-sum sweep, whose
// moment expansion cancels in proportion to (|X − anchor|/h)²: a huge
// offset on X, spread/h beyond 10⁶, spacings that land exactly on grid
// bandwidths, and heavy duplication. They draw from their own stream so
// the cases above stay bit-identical.
func windowCases() []Dataset {
	rng := rand.New(rand.NewSource(1712_00993)) // Langrené & Warin's arXiv id
	var cases []Dataset

	// X = offset + U[0,1): every selector must see the same distances
	// as without the offset. 1e8 leaves X with ~2⁻²⁶ resolution, so
	// the float32 device paths cannot represent this sample at all —
	// the case is Float64Only.
	for _, off := range []struct {
		name   string
		offset float64
		f64    bool
	}{{"offset-x-1e3", 1e3, false}, {"offset-x-1e8", 1e8, true}} {
		n := 160
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			u := rng.Float64()
			x[i] = off.offset + u
			y[i] = math.Sin(6*u) + 0.1*rng.NormFloat64()
		}
		min, max := paperRange(x, 20)
		cases = append(cases, Dataset{Name: off.name, X: x, Y: y, GridMin: min, GridMax: max, K: 20, Float64Only: off.f64})
	}

	// A cluster 10⁻⁶ wide plus two remote points: spread/h ≥ 10⁶ at
	// every grid bandwidth while the windows stay well populated.
	// float32 resolves this cluster only because it sits at the origin:
	// no translate of it is representable (the shift-x invariant moves
	// it to where the float32 ulp exceeds the smallest bandwidth), so
	// the case is Float64Only too.
	{
		var x, y []float64
		for i := 0; i < 150; i++ {
			u := rng.Float64()
			x = append(x, 1e-6*u)
			y = append(y, math.Cos(5*u)+0.1*rng.NormFloat64())
		}
		x = append(x, -1, 1)
		y = append(y, 3, -3)
		cases = append(cases, Dataset{Name: "spread-over-h-1e6", X: x, Y: y, GridMin: 2e-8, GridMax: 1e-6, K: 20, Float64Only: true})
	}

	// Integer lattice and integer grid: spacings land exactly on grid
	// bandwidths, in both precisions (boundary ties with |d| = h).
	{
		n := 120
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 40)
			y[i] = math.Sin(float64(i)/3) + 0.2*rng.NormFloat64()
		}
		cases = append(cases, Dataset{Name: "lattice-ties", X: x, Y: y, GridMin: 1, GridMax: 12, K: 12})
	}

	// Heavy duplicates: 200 observations on 5 distinct X values, so every
	// window is a few long runs of equal keys.
	{
		n := 200
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%5) * 0.3
			y[i] = x[i]*x[i] + 0.3*rng.NormFloat64()
		}
		min, max := paperRange(x, 16)
		cases = append(cases, Dataset{Name: "heavy-duplicates", X: x, Y: y, GridMin: min, GridMax: max, K: 16})
	}
	return cases
}
