// Quickstart: generate the paper's synthetic dataset, select the optimal
// bandwidth with the default fast grid search, fit the Nadaraya–Watson
// regression, and print the fitted curve against the true conditional
// mean.
package main

import (
	"fmt"
	"log"

	"repro/internal/data"
	"repro/kernreg"
)

func main() {
	// The paper's data-generating process: X ~ U[0,1],
	// Y = 0.5X + 10X² + U(0, 0.5).
	d := data.GeneratePaper(2000, 42)

	// Select the CV-optimal bandwidth over the paper's default grid of
	// 50 candidates (max = domain of X, min = domain/50).
	sel, err := kernreg.SelectBandwidth(d.X, d.Y, kernreg.GridSize(50))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected bandwidth h = %.4f (grid index %d), CV(h) = %.5f\n\n",
		sel.Bandwidth, sel.Index, sel.CV)

	// Fit the regression at the selected bandwidth and compare with the
	// true conditional mean E[Y|X=x] = 0.5x + 10x² + 0.25.
	reg, err := kernreg.Fit(d.X, d.Y, sel.Bandwidth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("    x     ĝ(x)   E[Y|X=x]   error")
	for _, x0 := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		fit, ok := reg.Predict(x0)
		truth := data.Paper.TrueMean(x0)
		if !ok {
			fmt.Printf("  %.2f      (no observations in range)\n", x0)
			continue
		}
		fmt.Printf("  %.2f   %7.4f   %7.4f   %+.4f\n", x0, fit, truth, fit-truth)
	}

	// A deliberately bad (over-smoothed) bandwidth for contrast.
	over, err := kernreg.Fit(d.X, d.Y, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCV at h = %.4f (selected):      %.5f\n", sel.Bandwidth, reg.CVScore())
	fmt.Printf("CV at h = 0.8000 (over-smoothed): %.5f\n", over.CVScore())
}
