// Econometric scenario: a nonparametric Mincer-style wage–experience
// profile, the kind of relationship the paper's introduction motivates —
// economists want the shape of E[log wage | experience] without assuming
// it is linear or quadratic.
//
// The example contrasts three bandwidth choices on the same simulated
// labour-market sample:
//   - an ad hoc rule of thumb (what practitioners typically do, per the
//     paper's introduction),
//   - single-start numerical optimisation (the R np approach the paper
//     benchmarks against, with its local-minimum risk),
//   - the fast grid search (exact over the grid; the window-sum sweep,
//     kernreg's default).
//
// It then prints the fitted profile with leave-one-out cross-validated
// 95% confidence bands — the extension the paper's §II describes.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/kernreg"
)

// simulateWages draws a Mincer-like profile: log wages rise steeply over
// the first decade of experience, flatten, and decline slightly near
// retirement, with heteroskedastic noise.
func simulateWages(n int, seed int64) (experience, logWage []float64) {
	rng := rand.New(rand.NewSource(seed))
	experience = make([]float64, n)
	logWage = make([]float64, n)
	for i := 0; i < n; i++ {
		exp := 40 * rng.Float64() // years of experience, 0–40
		mean := 2.0 + 0.45*math.Log1p(exp) - 0.0001*exp*exp*exp/40
		noise := (0.15 + 0.004*exp) * rng.NormFloat64()
		experience[i] = exp
		logWage[i] = mean + noise
	}
	return experience, logWage
}

func trueProfile(exp float64) float64 {
	return 2.0 + 0.45*math.Log1p(exp) - 0.0001*exp*exp*exp/40
}

func main() {
	exp, wage := simulateWages(3000, 7)

	// 1. Ad hoc rule of thumb: "range over 10" — the kind of arbitrary
	// default the paper says practitioners fall back on.
	adhoc := 4.0

	// 2. Numerical optimisation (single start), as R's np would.
	numerical, err := kernreg.SelectBandwidth(exp, wage, kernreg.WithMethod(kernreg.MethodNumerical))
	if err != nil {
		log.Fatal(err)
	}

	// 3. The fast grid search over 100 candidates (kernreg's default).
	grid, err := kernreg.SelectBandwidth(exp, wage, kernreg.GridSize(100))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("bandwidth selection for E[log wage | experience], n = 3000")
	fmt.Printf("  ad hoc rule of thumb:     h = %6.3f\n", adhoc)
	fmt.Printf("  numerical optimisation:   h = %6.3f  (CV %.6f)\n", numerical.Bandwidth, numerical.CV)
	fmt.Printf("  fast grid search:         h = %6.3f  (CV %.6f)\n\n", grid.Bandwidth, grid.CV)

	// Compare out-of-sample quality: CV score at each bandwidth.
	for _, c := range []struct {
		name string
		h    float64
	}{{"ad hoc", adhoc}, {"numerical", numerical.Bandwidth}, {"grid", grid.Bandwidth}} {
		reg, err := kernreg.Fit(exp, wage, c.h)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  CV(%-9s h=%6.3f) = %.6f\n", c.name+",", c.h, reg.CVScore())
	}

	// Fit with the grid-selected bandwidth and print the profile with
	// LOO-CV 95% confidence bands.
	reg, err := kernreg.Fit(exp, wage, grid.Bandwidth)
	if err != nil {
		log.Fatal(err)
	}
	xs := []float64{1, 2, 5, 10, 15, 20, 25, 30, 35, 39}
	band, err := reg.ConfidenceBand(xs, 1.96)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n  exp    fitted   [95% band]          truth   effective n")
	for i, x0 := range xs {
		fmt.Printf("  %4.0f   %6.3f   [%6.3f, %6.3f]   %6.3f   %8.1f\n",
			x0, band.Fit[i], band.Lower[i], band.Upper[i], trueProfile(x0), reg.EffectiveN(x0))
	}
}
