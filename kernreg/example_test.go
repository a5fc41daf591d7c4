package kernreg_test

import (
	"fmt"

	"repro/internal/data"
	"repro/kernreg"
)

// ExampleSelectBandwidth reproduces the library's core loop: generate the
// paper's synthetic data, select the CV-optimal bandwidth with the default
// fast grid search (the window-sum sweep), and fit the regression.
func ExampleSelectBandwidth() {
	d := data.GeneratePaper(500, 42)
	sel, err := kernreg.SelectBandwidth(d.X, d.Y, kernreg.GridSize(50))
	if err != nil {
		panic(err)
	}
	fmt.Printf("grid index %d of %d\n", sel.Index, len(sel.Grid))
	fmt.Printf("bandwidth %.4f\n", sel.Bandwidth)
	// Output:
	// grid index 0 of 50
	// bandwidth 0.0199
}

// ExampleSelectBandwidth_methods shows that every search method lands on
// the same grid point.
func ExampleSelectBandwidth_methods() {
	d := data.GeneratePaper(300, 7)
	for _, m := range []kernreg.Method{
		kernreg.MethodSorted, kernreg.MethodNaive, kernreg.MethodSortedF32, kernreg.MethodGPU,
	} {
		sel, err := kernreg.SelectBandwidth(d.X, d.Y, kernreg.WithMethod(m), kernreg.GridSize(25))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s index %d\n", sel.Method, sel.Index)
	}
	// Output:
	// sorted     index 0
	// naive      index 0
	// sorted-f32 index 0
	// gpu        index 0
}

// ExampleFit predicts the conditional mean at a point and compares the
// estimator family.
func ExampleFit() {
	d := data.GeneratePaper(2000, 42)
	reg, err := kernreg.Fit(d.X, d.Y, 0.05)
	if err != nil {
		panic(err)
	}
	nw, _ := reg.Predict(0.5)
	ll, _ := reg.PredictLocalLinear(0.5)
	fmt.Printf("truth          %.2f\n", data.Paper.TrueMean(0.5))
	fmt.Printf("local constant %.2f\n", nw)
	fmt.Printf("local linear   %.2f\n", ll)
	// Output:
	// truth          3.00
	// local constant 3.01
	// local linear   3.01
}

// ExampleSelectDensityBandwidth selects a KDE bandwidth by least-squares
// cross-validation with the paper's sorted-grid technique.
func ExampleSelectDensityBandwidth() {
	d := data.GeneratePaper(400, 42)
	sel, err := kernreg.SelectDensityBandwidth(d.X, 50)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rule %s, bandwidth %.3f\n", sel.Rule, sel.Bandwidth)
	// Output:
	// rule lscv, bandwidth 0.080
}
