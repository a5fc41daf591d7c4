package bandwidth

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func TestLocalLinearCVExactOnLine(t *testing.T) {
	// For data on an exact line, the local-linear LOO estimate
	// reproduces the line wherever the design is non-degenerate, so CV
	// is (near) zero at any bandwidth wide enough.
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i) / float64(n-1)
		y[i] = 3 - 2*x[i]
	}
	cv := CVScoreLocalLinear(x, y, 0.3, kernel.Epanechnikov)
	if cv > 1e-18 {
		t.Errorf("local-linear CV on a line = %v, want ≈ 0", cv)
	}
	// Local-constant CV on the same line is strictly positive
	// (boundary and asymmetry bias).
	lc := CVScore(x, y, 0.3, kernel.Epanechnikov)
	if lc <= cv {
		t.Errorf("local-constant CV (%v) should exceed local-linear (%v) on a line", lc, cv)
	}
}

func TestSortedLocalLinearMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 4, 9} {
		for _, n := range []int{15, 60, 200} {
			d := data.GeneratePaper(n, seed)
			g, err := DefaultGrid(d.X, 20)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NaiveGridSearchLocalLinear(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := SortedGridSearchLocalLinear(context.Background(), d.X, d.Y, g, Compensated)
			if err != nil {
				t.Fatal(err)
			}
			if naive.Index != sorted.Index {
				t.Fatalf("seed %d n %d: indices %d vs %d", seed, n, naive.Index, sorted.Index)
			}
			for j := range g.H {
				if !mathx.AlmostEqual(naive.Scores[j], sorted.Scores[j], 1e-8) {
					t.Fatalf("seed %d n %d h#%d: %v vs %v", seed, n, j, naive.Scores[j], sorted.Scores[j])
				}
			}
		}
	}
}

func TestSortedLocalLinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		x, y := randomSample(seed, 10, 100)
		g, err := DefaultGrid(x, 12)
		if err != nil {
			return true
		}
		naive, err1 := NaiveGridSearchLocalLinear(context.Background(), x, y, g, kernel.Epanechnikov)
		sorted, err2 := SortedGridSearchLocalLinear(context.Background(), x, y, g, Compensated)
		if err1 != nil || err2 != nil {
			return false
		}
		if naive.Index != sorted.Index {
			return false
		}
		for j := range g.H {
			a, b := naive.Scores[j], sorted.Scores[j]
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && !mathx.AlmostEqual(a, b, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLocalLinearVsLocalConstantSelection(t *testing.T) {
	// On the paper's curved DGP the local-linear estimator tolerates (and
	// usually prefers) a wider bandwidth than the local-constant one,
	// since the linear term absorbs the local slope.
	d := data.GeneratePaper(400, 7)
	g, err := DefaultGrid(d.X, 60)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := SortedGridSearchLocalLinear(context.Background(), d.X, d.Y, g, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if ll.H < lc.H {
		t.Logf("note: ll bandwidth (%v) below lc (%v) on this draw — acceptable, both valid optima", ll.H, lc.H)
	}
	if !(ll.CV > 0) || !(lc.CV > 0) {
		t.Error("CV scores should be positive")
	}
	// The local-linear CV at its optimum should be no worse than the
	// local-constant CV at the same bandwidth would suggest the
	// estimator is broken.
	if ll.CV > lc.CV*2 {
		t.Errorf("local-linear optimum CV %v far above local-constant %v", ll.CV, lc.CV)
	}
}

func TestLocalLinearDegenerateDesign(t *testing.T) {
	// Duplicated X values make the local design singular at tiny
	// bandwidths; the estimator must fall back rather than blow up.
	x := []float64{0.5, 0.5, 0.5, 0.9}
	y := []float64{1, 2, 3, 4}
	cv := CVScoreLocalLinear(x, y, 0.1, kernel.Epanechnikov)
	if math.IsNaN(cv) || math.IsInf(cv, 0) {
		t.Errorf("degenerate-design CV = %v", cv)
	}
	s, err := SortedGridSearchLocalLinear(context.Background(), x, y, Grid{H: []float64{0.1, 0.5, 1.0}}, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("sorted degenerate scores: %v", s.Scores)
		}
	}
}

func TestLocalLinearInvalidInputs(t *testing.T) {
	if !math.IsInf(CVScoreLocalLinear([]float64{1, 2}, []float64{1, 2}, 0, kernel.Epanechnikov), 1) {
		t.Error("h=0 should score +Inf")
	}
	g := Grid{H: []float64{0.5}}
	if _, err := NaiveGridSearchLocalLinear(context.Background(), []float64{1}, []float64{1}, g, kernel.Epanechnikov); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := SortedGridSearchLocalLinear(context.Background(), []float64{1, 2}, []float64{1}, g, Compensated); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SortedGridSearchLocalLinear(context.Background(), []float64{1, 2}, []float64{1, 2}, Grid{}, Compensated); err == nil {
		t.Error("empty grid should fail")
	}
}
