// Package repro's root benchmark suite regenerates the paper's evaluation
// through `go test -bench`. One benchmark family exists per table/figure:
//
//	BenchmarkTableI_*    — run time by program and sample size (= Figure 1)
//	BenchmarkTableIIA    — sequential run time by number of bandwidths
//	BenchmarkTableIIB    — device-model run time by number of bandwidths
//	BenchmarkAblation_*  — the design-choice ablations from DESIGN.md §5
//
// Host programs report measured wall time per selection. The CUDA program
// reports the simulator's modelled device seconds as the custom metric
// "model-sec/op" (a software simulation's wall time says nothing about
// GPU time). Default sizes keep `go test -bench=. ./...` affordable;
// set REPRO_BENCH_FULL=1 to include the paper's largest sizes.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kde"
	"repro/internal/kernel"
	"repro/internal/sortx"
)

// benchNs are the Table I sample sizes exercised by default. The paper's
// 5,000–20,000 rows take minutes per op for the O(n²)-class programs on a
// single host core; they are included only with REPRO_BENCH_FULL=1.
func benchNs() []int {
	ns := []int{50, 100, 500, 1000, 2000}
	if os.Getenv("REPRO_BENCH_FULL") != "" {
		ns = append(ns, 5000, 10000, 20000)
	}
	return ns
}

const benchK = 50 // the paper's Table I / Figure 1 bandwidth count

func setup(b *testing.B, n, k int) (data.Dataset, bandwidth.Grid) {
	b.Helper()
	d := data.GeneratePaper(n, 42)
	g, err := bandwidth.DefaultGrid(d.X, k)
	if err != nil {
		b.Fatal(err)
	}
	return d, g
}

// BenchmarkTableI_P1_Numerical is the Racine & Hayfield column: numerical
// optimisation over the naive O(n²) CV objective.
func BenchmarkTableI_P1_Numerical(b *testing.B) {
	for _, n := range benchNs() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _ := setup(b, n, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baselines.SelectNumerical(context.Background(), d.X, d.Y, baselines.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_P2_Multicore is the Multicore R column: the same
// optimisation with the objective fanned across goroutines.
func BenchmarkTableI_P2_Multicore(b *testing.B) {
	for _, n := range benchNs() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _ := setup(b, n, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baselines.SelectNumericalParallel(context.Background(), d.X, d.Y, baselines.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_P3_SequentialC is the Sequential C column: the paper's
// sorted incremental grid search in single precision.
func BenchmarkTableI_P3_SequentialC(b *testing.B) {
	for _, n := range benchNs() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, g := setup(b, n, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_P4_CUDAModel is the CUDA on GPU column: modelled device
// seconds from the planning-mode pipeline (reported as model-sec/op; the
// measured ns/op is just the planner's own cost).
func BenchmarkTableI_P4_CUDAModel(b *testing.B) {
	props := gpu.TeslaS10()
	ns := append(benchNs(), 5000, 10000, 20000) // model is cheap at any size
	seen := map[int]bool{}
	for _, n := range ns {
		if seen[n] {
			continue
		}
		seen[n] = true
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last core.Plan
			for i := 0; i < b.N; i++ {
				p, err := core.PlanGPU(n, benchK, props)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.ReportMetric(last.Seconds, "model-sec/op")
		})
	}
}

// BenchmarkTableI_GoNative benchmarks this repository's adoptable
// selectors (float64 sorted search, goroutine-parallel variant) on the
// same grid, extending Table I with the Go-native columns.
func BenchmarkTableI_GoNative(b *testing.B) {
	for _, n := range benchNs() {
		d, g := setup(b, n, benchK)
		b.Run(fmt.Sprintf("sorted/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bandwidth.SortedGridSearchParallel(context.Background(), d.X, d.Y, g, 0, bandwidth.Compensated); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortedContextOverhead measures what the per-observation
// ctx.Err() poll costs the sorted hot loop, by running the same search
// through a live cancellable context (the kernregd service path). The
// acceptance bound for the service work is < 3% at n=2,000 versus the
// sorted/n=2000 case of BenchmarkTableI_GoNative.
func BenchmarkSortedContextOverhead(b *testing.B) {
	n := 2000
	d, g := setup(b, n, benchK)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.Run(fmt.Sprintf("live-ctx/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(ctx, d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("background/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompensatedOverhead measures what Neumaier-compensated
// accumulation costs the two sequential sweeps relative to the seed's
// plain running sums, at the paper's reference size (n = 2,000, k = 50).
// The stability work's acceptance bound is ≤ 5% overhead for each pair.
func BenchmarkCompensatedOverhead(b *testing.B) {
	n := 2000
	d, g := setup(b, n, benchK)
	ctx := context.Background()
	b.Run(fmt.Sprintf("f64-compensated/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(ctx, d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("f64-uncompensated/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(ctx, d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Uncompensated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("f32-compensated/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("f32-uncompensated/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Uncompensated); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableIIA regenerates Table II Panel A: sequential run time as
// the number of bandwidths grows, at a fixed sample size. The paper's
// finding: a visible k effect at small n, negligible at large n.
func BenchmarkTableIIA(b *testing.B) {
	ns := []int{1000}
	if os.Getenv("REPRO_BENCH_FULL") != "" {
		ns = append(ns, 5000, 20000)
	}
	for _, n := range ns {
		for _, k := range []int{5, 10, 50, 100, 500, 1000, 2000} {
			if k > n {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				d, g := setup(b, n, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableIIB regenerates Table II Panel B: modelled device time as
// the number of bandwidths grows. The paper's finding: no appreciable
// slowdown in k at any sample size.
func BenchmarkTableIIB(b *testing.B) {
	props := gpu.TeslaS10()
	for _, n := range []int{1000, 10000, 20000} {
		for _, k := range []int{5, 10, 50, 100, 500, 1000, 2000} {
			if k > n {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				var last core.Plan
				for i := 0; i < b.N; i++ {
					p, err := core.PlanGPU(n, k, props)
					if err != nil {
						b.Fatal(err)
					}
					last = p
				}
				b.ReportMetric(last.Seconds, "model-sec/op")
			})
		}
	}
}

// BenchmarkAblation_SortedVsNaive quantifies the paper's first
// contribution in isolation: the sorted incremental grid search against
// the naive O(k·n²) re-summation, same grid, same kernel.
func BenchmarkAblation_SortedVsNaive(b *testing.B) {
	d, g := setup(b, 1000, benchK)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.NaiveGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_GridVsOptim contrasts the grid search with numerical
// optimisation (reliability aside, the paper argues the sorted grid costs
// little more).
func BenchmarkAblation_GridVsOptim(b *testing.B) {
	d, g := setup(b, 1000, benchK)
	b.Run("optim-1-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.SelectNumerical(context.Background(), d.X, d.Y, baselines.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optim-8-starts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.SelectNumerical(context.Background(), d.X, d.Y, baselines.Options{Starts: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sorted-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_IterativeVsRecursiveSort measures the device sort
// choice (the paper replaces recursion with an explicit stack).
func BenchmarkAblation_IterativeVsRecursiveSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 8192
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(rng.Float64())
	}
	keys := make([]float32, n)
	payload := make([]float32, n)
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(keys, src)
			copy(payload, src)
			sortx.QuickSort32(keys, payload)
		}
	})
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(keys, src)
			copy(payload, src)
			sortx.RecursiveQuickSort32(keys, payload, nil)
		}
	})
	b.Run("device-instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(keys, src)
			copy(payload, src)
			cuda.DeviceQuickSort(keys, payload)
		}
	})
}

// BenchmarkAblation_IndexSwitch runs the device pipeline with and without
// the paper's index switch; the modelled device seconds expose the
// coalescing difference in the reduction phase.
func BenchmarkAblation_IndexSwitch(b *testing.B) {
	d, g := setup(b, 1000, benchK)
	for _, cfg := range []struct {
		name     string
		noSwitch bool
	}{{"switched", false}, {"unswitched", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var model, reduce float64
			for i := 0; i < b.N; i++ {
				_, rep, err := core.SelectGPU(context.Background(), d.X, d.Y, g, core.GPUOptions{NoIndexSwitch: cfg.noSwitch})
				if err != nil {
					b.Fatal(err)
				}
				model = rep.ModelSeconds
				reduce = rep.TimeByKernel["kernel sumReduce"] + rep.TimeByKernel["kernel sumReduceStrided"]
			}
			b.ReportMetric(model, "model-sec/op")
			b.ReportMetric(reduce*1e3, "reduce-model-ms/op")
		})
	}
}

// BenchmarkGPU_ExecModes compares the simulator's two execution engines
// on a barrier-free kernel (DESIGN.md decision 6: the paper's main kernel
// needs no synchronisation, which is why the fast sequential engine is
// sound for it).
func BenchmarkGPU_ExecModes(b *testing.B) {
	for _, useBarrier := range []bool{false, true} {
		name := "sequential-engine"
		if useBarrier {
			name = "goroutine-engine"
		}
		b.Run(name, func(b *testing.B) {
			dev, err := gpu.NewDevice(gpu.TeslaS10(), gpu.Functional)
			if err != nil {
				b.Fatal(err)
			}
			n := 4096
			buf, err := dev.Malloc(n, "out")
			if err != nil {
				b.Fatal(err)
			}
			attrs := gpu.KernelAttrs{Name: "bench", UsesBarrier: useBarrier}
			cfg := gpu.ConfigFor(n, dev.Props())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dev.Launch(attrs, cfg, func(tc *gpu.ThreadCtx) {
					id := tc.GlobalID()
					if id < n {
						tc.Store(buf, id, float32(id))
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKDE_LSCV measures the paper's KDE extension: the sorted LSCV
// grid search against the naive per-bandwidth evaluation.
func BenchmarkKDE_LSCV(b *testing.B) {
	d := data.GeneratePaper(1000, 42)
	grid := make([]float64, benchK)
	for j := 1; j <= benchK; j++ {
		grid[j-1] = float64(j) / benchK
	}
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kde.SortedLSCVGrid(d.X, grid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range grid {
				if _, err := kde.LSCVScore(d.X, h, kernel.Epanechnikov); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkGPUFunctional measures the wall cost of functionally simulating
// the device pipeline (not a paper number — it bounds what the test suite
// can afford and documents the simulator's own speed).
func BenchmarkGPUFunctional(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, g := setup(b, n, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SelectGPU(context.Background(), d.X, d.Y, g, core.GPUOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
