package kernreg

import (
	"math"
	"testing"

	"repro/internal/data"
)

func paperData(n int, seed int64) ([]float64, []float64) {
	d := data.GeneratePaper(n, seed)
	return d.X, d.Y
}

func TestSelectBandwidthDefaults(t *testing.T) {
	x, y := paperData(200, 1)
	sel, err := SelectBandwidth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Bandwidth <= 0 || sel.CV <= 0 {
		t.Errorf("selection = %+v", sel)
	}
	if len(sel.Grid) != 50 {
		t.Errorf("default grid size = %d, want 50", len(sel.Grid))
	}
	if sel.Method != DefaultMethod || DefaultMethod != MethodWindow {
		t.Errorf("default method = %v, want the window sweep", sel.Method)
	}
	if sel.Grid[sel.Index] != sel.Bandwidth {
		t.Error("bandwidth misaligned with grid index")
	}
	if sel.Scores != nil {
		t.Error("scores should be omitted unless requested")
	}
}

func TestAllGridMethodsAgree(t *testing.T) {
	x, y := paperData(250, 7)
	base, err := SelectBandwidth(x, y, GridSize(25))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodNaive, MethodGPU, MethodGPUTiled, MethodTwoPointer, MethodTwoPointerParallel, MethodTwoPointerF32} {
		sel, err := SelectBandwidth(x, y, GridSize(25), WithMethod(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sel.Index != base.Index {
			t.Errorf("%v selected index %d, the default method selected %d", m, sel.Index, base.Index)
		}
	}
}

func TestNumericalMethod(t *testing.T) {
	x, y := paperData(200, 3)
	sel, err := SelectBandwidth(x, y, WithMethod(MethodNumerical), Restarts(4))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Index != -1 || sel.Grid != nil {
		t.Error("numerical method should not report a grid index")
	}
	grid, _ := SelectBandwidth(x, y, GridSize(200))
	if math.Abs(sel.Bandwidth-grid.Bandwidth) > 0.05 {
		t.Errorf("numerical h = %v, grid h = %v", sel.Bandwidth, grid.Bandwidth)
	}
	// Parallel numerical path.
	par, err := SelectBandwidth(x, y, WithMethod(MethodNumerical), Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.Bandwidth-sel.Bandwidth) > 0.05 {
		t.Errorf("parallel numerical diverged: %v vs %v", par.Bandwidth, sel.Bandwidth)
	}
}

func TestKeepScores(t *testing.T) {
	x, y := paperData(100, 5)
	sel, err := SelectBandwidth(x, y, GridSize(20), KeepScores())
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Scores) != 20 {
		t.Fatalf("scores length %d", len(sel.Scores))
	}
	if sel.Scores[sel.Index] != sel.CV {
		t.Error("score misaligned")
	}
}

func TestGridRangeOption(t *testing.T) {
	x, y := paperData(100, 2)
	sel, err := SelectBandwidth(x, y, GridRange(0.05, 0.5), GridSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Grid[0] != 0.05 || sel.Grid[9] != 0.5 {
		t.Errorf("grid range not honoured: %v", sel.Grid)
	}
}

func TestKernelOption(t *testing.T) {
	x, y := paperData(150, 9)
	for _, name := range []string{"uniform", "triangular"} {
		if _, err := SelectBandwidth(x, y, WithKernel(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Gaussian works with the naive method but not the sorted one.
	if _, err := SelectBandwidth(x, y, WithKernel("gaussian")); err == nil {
		t.Error("gaussian + sorted should fail")
	}
	if _, err := SelectBandwidth(x, y, WithKernel("gaussian"), WithMethod(MethodNaive)); err != nil {
		t.Error("gaussian + naive should work")
	}
	if _, err := SelectBandwidth(x, y, WithKernel("nonesuch")); err == nil {
		t.Error("unknown kernel should fail")
	}
	// The single-precision and parallel paths are Epanechnikov-only; the
	// GPU path covers footnote 1's full compact set.
	for _, m := range []Method{MethodSortedF32, MethodSortedParallel} {
		if _, err := SelectBandwidth(x, y, WithKernel("uniform"), WithMethod(m)); err == nil {
			t.Errorf("%v with uniform kernel should be rejected", m)
		}
	}
	for _, kn := range []string{"uniform", "triangular"} {
		gpuSel, err := SelectBandwidth(x, y, WithKernel(kn), WithMethod(MethodGPU), GridSize(20))
		if err != nil {
			t.Fatalf("gpu + %s: %v", kn, err)
		}
		host, err := SelectBandwidth(x, y, WithKernel(kn), GridSize(20))
		if err != nil {
			t.Fatal(err)
		}
		if gpuSel.Index != host.Index {
			t.Errorf("gpu %s index %d vs host %d", kn, gpuSel.Index, host.Index)
		}
	}
	if _, err := SelectBandwidth(x, y, WithKernel("biweight"), WithMethod(MethodGPU)); err == nil {
		t.Error("gpu + biweight should be rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	x, y := paperData(50, 1)
	if _, err := SelectBandwidth(x, y, GridSize(0)); err == nil {
		t.Error("grid size 0 should fail")
	}
	if _, err := SelectBandwidth(x, y, GridRange(0.5, 0.1)); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := SelectBandwidth(x, y, Restarts(0)); err == nil {
		t.Error("restarts 0 should fail")
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodNaive, MethodNumerical, MethodGPU, MethodGPUTiled} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestFitPredict(t *testing.T) {
	x, y := paperData(400, 11)
	sel, err := SelectBandwidth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(x, y, sel.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Bandwidth() != sel.Bandwidth {
		t.Error("bandwidth not stored")
	}
	got, ok := reg.Predict(0.5)
	want := data.Paper.TrueMean(0.5)
	if !ok || math.Abs(got-want) > 0.25 {
		t.Errorf("ĝ(0.5) = %v, want ≈ %v", got, want)
	}
	grid := reg.PredictGrid([]float64{0.2, 0.8})
	if len(grid) != 2 {
		t.Error("PredictGrid length wrong")
	}
	if reg.CVScore() <= 0 {
		t.Error("CV score should be positive")
	}
	if reg.EffectiveN(0.5) <= 1 {
		t.Error("effective n should exceed 1 at an interior point")
	}
	ll, ok := reg.PredictLocalLinear(0.5)
	if !ok || math.Abs(ll-want) > 0.25 {
		t.Errorf("local linear = %v", ll)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit([]float64{1, 2}, []float64{1}, 0.5); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1, 2}, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if _, err := FitKernel([]float64{1, 2}, []float64{1, 2}, 0.5, "bogus"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestConfidenceBand(t *testing.T) {
	x, y := paperData(500, 13)
	reg, err := Fit(x, y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	band, err := reg.ConfidenceBand([]float64{0.3, 0.7}, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	for i := range band.X {
		if !(band.Lower[i] < band.Fit[i] && band.Fit[i] < band.Upper[i]) {
			t.Errorf("band ordering broken at %v", band.X[i])
		}
	}
	if _, err := reg.ConfidenceBand([]float64{0.3}, -1); err == nil {
		t.Error("negative z should fail")
	}
}

func TestDensityAPI(t *testing.T) {
	x, _ := paperData(500, 17)
	sel, err := SelectDensityBandwidth(x, 0) // default k
	if err != nil {
		t.Fatal(err)
	}
	if sel.Bandwidth <= 0 || sel.Rule != "lscv" {
		t.Errorf("density selection = %+v", sel)
	}
	den, err := NewDensity(x, sel.Bandwidth, "epanechnikov")
	if err != nil {
		t.Fatal(err)
	}
	if den.Bandwidth() != sel.Bandwidth {
		t.Error("bandwidth not stored")
	}
	if den.At(0.5) <= 0 {
		t.Error("density should be positive in the support")
	}
	if len(den.Grid([]float64{0.1, 0.9})) != 2 {
		t.Error("Grid length wrong")
	}
	for _, rule := range []string{"silverman", "scott"} {
		r, err := RuleOfThumbBandwidth(x, rule, "epanechnikov")
		if err != nil || r.Bandwidth <= 0 {
			t.Errorf("%s: %+v, %v", rule, r, err)
		}
	}
	if _, err := RuleOfThumbBandwidth(x, "bogus", "epanechnikov"); err == nil {
		t.Error("unknown rule should fail")
	}
	if _, err := RuleOfThumbBandwidth(x, "scott", "bogus"); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := RuleOfThumbBandwidth([]float64{1}, "scott", "epanechnikov"); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := NewDensity(x, -1, "epanechnikov"); err == nil {
		t.Error("negative bandwidth should fail")
	}
	if _, err := NewDensity(x, 0.1, "bogus"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestGPUMethodCapacityError(t *testing.T) {
	x, y := paperData(60, 19)
	_, err := SelectBandwidth(x, y, WithMethod(MethodGPU), GridSize(2049), GridRange(0.001, 1))
	if err == nil {
		t.Error("k=2049 on the GPU should hit the constant cache limit")
	}
}

func TestMethodString(t *testing.T) {
	if Method(42).String() == "" {
		t.Error("unknown method should stringify")
	}
}
