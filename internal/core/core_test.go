package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func paperSetup(t *testing.T, n, k int, seed int64) (data.Dataset, bandwidth.Grid) {
	t.Helper()
	d := data.GeneratePaper(n, seed)
	g, err := bandwidth.DefaultGrid(d.X, k)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

func TestSelectorString(t *testing.T) {
	want := map[Selector]string{
		RacineHayfield: "Racine & Hayfield",
		MulticoreR:     "Multicore R",
		SequentialC:    "Sequential C",
		CUDAOnGPU:      "CUDA on GPU",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d: %q", s, s.String())
		}
	}
	if Selector(9).String() == "" {
		t.Error("unknown selector should stringify")
	}
}

func TestSortedSequentialMatchesFloat64(t *testing.T) {
	// Program 3 (float32) must agree with the double-precision host
	// search on the selected index, and its scores must be close.
	for _, seed := range []int64{1, 5, 9} {
		for _, n := range []int{20, 100, 400} {
			d, g := paperSetup(t, n, 30, seed)
			f64, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
			if err != nil {
				t.Fatal(err)
			}
			f32, err := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
			if err != nil {
				t.Fatal(err)
			}
			if f32.Index != f64.Index {
				t.Errorf("seed %d n %d: index %d vs %d", seed, n, f32.Index, f64.Index)
			}
			for j := range g.H {
				if mathx.RelDiff(f32.Scores[j], f64.Scores[j]) > 1e-4 {
					t.Errorf("seed %d n %d h#%d: f32 %v vs f64 %v", seed, n, j, f32.Scores[j], f64.Scores[j])
					break
				}
			}
		}
	}
}

func TestSortedParallelWraps(t *testing.T) {
	d, g := paperSetup(t, 200, 20, 3)
	seq, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bandwidth.SortedGridSearchParallel(context.Background(), d.X, d.Y, g, 4, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if par.Index != seq.Index {
		t.Errorf("parallel index %d vs %d", par.Index, seq.Index)
	}
}

func TestGPUMatchesSequentialC(t *testing.T) {
	// The paper's §IV.C protocol: "the sequential C code and the CUDA
	// code were checked against each other to ensure that they produced
	// identical results under many different sets of inputs."
	for _, seed := range []int64{2, 7, 11} {
		for _, cfg := range []struct{ n, k int }{{30, 5}, {100, 20}, {257, 50}, {512, 64}} {
			d, g := paperSetup(t, cfg.n, cfg.k, seed)
			seq, err := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
			if err != nil {
				t.Fatal(err)
			}
			gpuRes, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{KeepScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if gpuRes.Index != seq.Index {
				t.Errorf("seed %d n %d k %d: GPU index %d vs sequential %d",
					seed, cfg.n, cfg.k, gpuRes.Index, seq.Index)
			}
			// Per-bandwidth scores differ only by float32 reduction
			// order.
			for j := range g.H {
				if mathx.RelDiff(gpuRes.Scores[j], seq.Scores[j]) > 1e-4 {
					t.Errorf("seed %d n %d k %d h#%d: %v vs %v",
						seed, cfg.n, cfg.k, j, gpuRes.Scores[j], seq.Scores[j])
					break
				}
			}
		}
	}
}

func TestGPUMatchesNaive(t *testing.T) {
	d, g := paperSetup(t, 150, 25, 13)
	naive, err := bandwidth.NaiveGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gpuRes.Index != naive.Index {
		t.Errorf("GPU %d vs naive %d", gpuRes.Index, naive.Index)
	}
	if mathx.RelDiff(gpuRes.CV, naive.CV) > 1e-4 {
		t.Errorf("CV %v vs %v", gpuRes.CV, naive.CV)
	}
}

func TestGPUIndexArgMinVariant(t *testing.T) {
	d, g := paperSetup(t, 120, 30, 4)
	a, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{UseIndexArgMin: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Index != b.Index || a.H != b.H {
		t.Errorf("arg-min variants disagree: %+v vs %+v", a, b)
	}
}

func TestGPUOtherDGPs(t *testing.T) {
	for _, dgp := range []data.DGP{data.Sine, data.Step, data.Clustered} {
		d := data.Generate(dgp, 200, 21)
		g, err := bandwidth.DefaultGrid(d.X, 25)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		gpuRes, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
		if err != nil {
			t.Fatalf("%v: %v", dgp, err)
		}
		if gpuRes.Index != seq.Index {
			t.Errorf("%v: GPU %d vs sequential %d", dgp, gpuRes.Index, seq.Index)
		}
	}
}

func TestGPUReport(t *testing.T) {
	d, g := paperSetup(t, 300, 50, 42)
	_, rep, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelSeconds <= 0 {
		t.Error("modelled time should be positive")
	}
	// 11 mallocs, 1 main kernel + 50 sum reductions + 1 argmin.
	if rep.Stats.Launches != 52 {
		t.Errorf("launches = %d, want 52", rep.Stats.Launches)
	}
	if rep.Mem.Peak < int64(2*300*300*4) {
		t.Errorf("peak memory %d below the two n×n matrices", rep.Mem.Peak)
	}
	if rep.TimeByLabel["kernel"] <= 0 || rep.TimeByLabel["memcpy"] <= 0 {
		t.Errorf("time ledger incomplete: %v", rep.TimeByLabel)
	}
	if rep.MainTally.GlobalWrite == 0 || rep.MainTally.WarpMaxOps == 0 {
		t.Error("main kernel tally empty")
	}
}

func TestGPUConstCacheCliff(t *testing.T) {
	// k ≤ 2048 works (on a sample big enough), k = 2049 must fail with
	// the constant-cache error — the paper's hard limit.
	d := data.GeneratePaper(64, 1)
	g2049, err := bandwidth.NewGrid(0.001, 1.0, 2049)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = SelectGPU(context.Background(), d.X, d.Y, g2049, GPUOptions{})
	if !errors.Is(err, gpu.ErrConstCacheExceeded) {
		t.Errorf("k=2049 should hit the constant cache limit, got %v", err)
	}
}

func TestGPUMemoryCliff(t *testing.T) {
	// Planning mode reproduces the paper's n = 20,000 wall: 20,000 fits
	// a 4 GB device, 25,000 does not.
	props := gpu.TeslaS10()
	if _, err := PlanGPU(20000, 50, props); err != nil {
		t.Errorf("n=20,000 should fit: %v", err)
	}
	_, err := PlanGPU(25000, 50, props)
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Errorf("n=25,000 should OOM, got %v", err)
	}
}

func TestMaxFeasibleN(t *testing.T) {
	props := gpu.TeslaS10()
	maxN := MaxFeasibleN(50, props, 40000)
	if maxN < 20000 || maxN > 24000 {
		t.Errorf("MaxFeasibleN = %d, expected just above the paper's 20,000", maxN)
	}
	// A bigger k barely moves the wall (n×k ≪ n×n).
	maxN2 := MaxFeasibleN(2000, props, 40000)
	if maxN2 < 19000 || maxN2 > maxN {
		t.Errorf("MaxFeasibleN(k=2000) = %d", maxN2)
	}
	// The cap argument is honoured when everything fits.
	if got := MaxFeasibleN(50, props, 1000); got != 1000 {
		t.Errorf("MaxFeasibleN with low cap = %d", got)
	}
}

func TestPlanMatchesFunctionalTallies(t *testing.T) {
	// The planning-mode closed forms must track the functional engine's
	// measured tallies: this validates every large-n modelled number in
	// EXPERIMENTS.md.
	for _, cfg := range []struct{ n, k int }{{256, 20}, {512, 50}, {1000, 50}} {
		d, g := paperSetup(t, cfg.n, cfg.k, 31)
		_, rep, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan := MainKernelPlan(cfg.n, cfg.k, gpu.TeslaS10())
		got := rep.MainTally
		checks := []struct {
			name       string
			plan, meas int64
			tol        float64
		}{
			{"ThreadOps", plan.ThreadOps, got.ThreadOps, 0.25},
			{"WarpMaxOps", plan.WarpMaxOps, got.WarpMaxOps, 0.30},
			{"GlobalRead", plan.GlobalRead, got.GlobalRead, 0.25},
			{"GlobalWrite", plan.GlobalWrite, got.GlobalWrite, 0.25},
			{"GlobalReadEff", plan.GlobalReadEff, got.GlobalReadEff, 0.25},
			{"GlobalWrEff", plan.GlobalWrEff, got.GlobalWrEff, 0.25},
		}
		for _, c := range checks {
			if c.meas == 0 {
				t.Errorf("n=%d k=%d %s: functional tally is zero", cfg.n, cfg.k, c.name)
				continue
			}
			rel := math.Abs(float64(c.plan)-float64(c.meas)) / float64(c.meas)
			if rel > c.tol {
				t.Errorf("n=%d k=%d %s: plan %d vs measured %d (%.0f%% off)",
					cfg.n, cfg.k, c.name, c.plan, c.meas, rel*100)
			}
		}
	}
}

func TestPlanModelledTimeTracksFunctional(t *testing.T) {
	// End-to-end modelled seconds: the analytic plan should be within
	// 30% of the functional pipeline's modelled clock.
	d, g := paperSetup(t, 500, 50, 8)
	_, rep, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGPU(500, 50, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(plan.Seconds-rep.ModelSeconds) / rep.ModelSeconds
	if rel > 0.30 {
		t.Errorf("plan %.4fs vs functional-model %.4fs (%.0f%% apart)",
			plan.Seconds, rep.ModelSeconds, rel*100)
	}
}

func TestPlanScalesLikePaper(t *testing.T) {
	// The modelled CUDA column must reproduce the paper's shape: flat
	// floor at small n, then growth steeper than linear; and the
	// absolute numbers must land within a factor 2 of Table I / II.
	props := gpu.TeslaS10()
	paper := map[int]float64{50: 0.09, 100: 0.09, 500: 0.15, 1000: 0.24, 5000: 1.83, 10000: 7.10, 20000: 32.49}
	var prev float64
	for _, n := range []int{50, 100, 500, 1000, 5000, 10000, 20000} {
		plan, err := PlanGPU(n, 50, props)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Seconds < prev {
			t.Errorf("modelled time decreased at n=%d", n)
		}
		prev = plan.Seconds
		ratio := plan.Seconds / paper[n]
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("n=%d: modelled %.3fs vs paper %.2fs (ratio %.2f outside [0.4, 2.5])",
				n, plan.Seconds, paper[n], ratio)
		}
	}
}

func TestPlanFlatInBandwidths(t *testing.T) {
	// Table II Panel B: "we do not observe appreciable slowdowns
	// associated with increasing the numbers of bandwidths".
	props := gpu.TeslaS10()
	base, err := PlanGPU(10000, 5, props)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PlanGPU(10000, 2000, props)
	if err != nil {
		t.Fatal(err)
	}
	if big.Seconds > base.Seconds*1.25 {
		t.Errorf("k=2000 modelled %.3fs vs k=5 %.3fs: more than 25%% slowdown", big.Seconds, base.Seconds)
	}
}

func TestVerifyAgreement(t *testing.T) {
	a := bandwidth.Result{H: 0.1, CV: 1.0, Index: 3}
	b := bandwidth.Result{H: 0.1, CV: 1.0000001, Index: 3}
	if err := VerifyAgreement(a, b, 1e-4); err != nil {
		t.Errorf("near-identical results should agree: %v", err)
	}
	c := bandwidth.Result{H: 0.2, CV: 1.0, Index: 4}
	if err := VerifyAgreement(a, c, 1e-4); err == nil {
		t.Error("different indices should disagree")
	}
	d := bandwidth.Result{H: 0.1, CV: 2.0, Index: 3}
	if err := VerifyAgreement(a, d, 1e-4); err == nil {
		t.Error("different CV should disagree")
	}
}

func TestInputValidation(t *testing.T) {
	g := bandwidth.Grid{H: []float64{0.5}}
	if _, err := SortedSequential(context.Background(), []float64{1, 2}, []float64{1}, g, bandwidth.Compensated); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SortedSequential(context.Background(), []float64{1}, []float64{1}, g, bandwidth.Compensated); err == nil {
		t.Error("single observation should fail")
	}
	if _, _, err := SelectGPU(context.Background(), []float64{1, 2}, []float64{1, 2}, bandwidth.Grid{}, GPUOptions{}); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestGPUSmallBlockDim(t *testing.T) {
	// n smaller than the block size: one truncated block.
	d, g := paperSetup(t, 10, 5, 2)
	res, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if res.Index != seq.Index {
		t.Errorf("tiny-n GPU selection %d vs %d", res.Index, seq.Index)
	}
}

func TestGPUCustomBlockDim(t *testing.T) {
	d, g := paperSetup(t, 200, 10, 6)
	for _, bd := range []int{32, 128, 512} {
		res, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{BlockDim: bd, ReduceDim: 64})
		if err != nil {
			t.Fatalf("blockDim %d: %v", bd, err)
		}
		seq, _ := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
		if res.Index != seq.Index {
			t.Errorf("blockDim %d: index %d vs %d", bd, res.Index, seq.Index)
		}
	}
}

func TestGPUFootnoteKernels(t *testing.T) {
	// Footnote 1: the sorting strategy also covers the Uniform and
	// Triangular kernels. The device program must match the host sorted
	// search for each.
	d, g := paperSetup(t, 250, 25, 19)
	for _, kn := range []kernel.Kind{kernel.Uniform, kernel.Triangular, kernel.Epanechnikov} {
		host, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kn, bandwidth.Compensated)
		if err != nil {
			t.Fatal(err)
		}
		dev, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{Kernel: kn, KeepScores: true})
		if err != nil {
			t.Fatalf("%v: %v", kn, err)
		}
		if dev.Index != host.Index {
			t.Errorf("%v: device %d vs host %d", kn, dev.Index, host.Index)
		}
		for j := range g.H {
			if mathx.RelDiff(dev.Scores[j], host.Scores[j]) > 1e-4 {
				t.Errorf("%v h#%d: %v vs %v", kn, j, dev.Scores[j], host.Scores[j])
				break
			}
		}
	}
	// Unsupported kernel fails loudly.
	if _, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{Kernel: kernel.Gaussian}); err == nil {
		t.Error("gaussian on the device should be rejected")
	}
}
