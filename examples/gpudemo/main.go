// GPU pipeline demo: the same bandwidth selection executed three ways —
// host double precision, host single precision (the paper's Sequential C
// program), and the paper's CUDA program on the simulated Tesla S10 —
// with the device's memory and timing report, the §IV.C agreement check,
// and the progressive grid-refinement loop the paper suggests for
// precision beyond the 2,048-bandwidth constant-cache cap.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
)

func main() {
	n, k := 1500, 50
	d := data.GeneratePaper(n, 123)
	g, err := bandwidth.DefaultGrid(d.X, k)
	if err != nil {
		log.Fatal(err)
	}

	host, err := bandwidth.SortedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
	if err != nil {
		log.Fatal(err)
	}
	seqC, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if err != nil {
		log.Fatal(err)
	}
	gpuRes, rep, err := core.SelectGPU(context.Background(), d.X, d.Y, g, core.GPUOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("n = %d, k = %d\n", n, k)
	fmt.Printf("  host float64:  h = %.5f (index %d), CV = %.6f\n", host.H, host.Index, host.CV)
	fmt.Printf("  host float32:  h = %.5f (index %d), CV = %.6f\n", seqC.H, seqC.Index, seqC.CV)
	fmt.Printf("  simulated GPU: h = %.5f (index %d), CV = %.6f\n", gpuRes.H, gpuRes.Index, gpuRes.CV)
	if err := core.VerifyAgreement(seqC, gpuRes, 1e-4); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  agreement: sequential C and CUDA identical ✓ (the paper's §IV.C check)")

	fmt.Printf("\nsimulated device report (%s):\n", gpu.TeslaS10().Name)
	fmt.Printf("  modelled selection time: %.4f s\n", rep.ModelSeconds)
	fmt.Printf("  memory peak: %.1f MB (two n×n float32 matrices dominate: %.1f MB)\n",
		float64(rep.Mem.Peak)/(1<<20), float64(2*n*n*4)/(1<<20))
	fmt.Printf("  kernel launches: %d (1 main + %d per-bandwidth reductions + 1 arg-min)\n",
		rep.Stats.Launches, k)
	fmt.Printf("  main-kernel divergence ratio: %.3f (QuickSort path-length spread across warps)\n",
		rep.MainTally.DivergenceRatio(32))

	// Progressive refinement, the paper's suggestion for precision beyond
	// the 2,048-bandwidth constant-memory cap: re-run the selection with
	// progressively narrower grids around the winner.
	fmt.Println("\nprogressive grid refinement on the device:")
	grid := g
	res := gpuRes
	for round := 1; round <= 3; round++ {
		grid, err = grid.Refine(res.Index, k)
		if err != nil {
			log.Fatal(err)
		}
		res, _, err = core.SelectGPU(context.Background(), d.X, d.Y, grid, core.GPUOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  round %d: grid [%.6f, %.6f] → h = %.6f, CV = %.7f\n",
			round, grid.Min(), grid.Max(), res.H, res.CV)
	}

	// Capacity cliffs, demonstrated rather than asserted.
	fmt.Println("\ncapacity limits of the 4 GB device profile:")
	if _, err := core.PlanGPU(20000, k, gpu.TeslaS10()); err == nil {
		fmt.Println("  n = 20,000: fits (the paper's largest size)")
	}
	if _, err := core.PlanGPU(25000, k, gpu.TeslaS10()); err != nil {
		fmt.Printf("  n = 25,000: %v\n", err)
	}
	fmt.Printf("  largest feasible n at k = %d: %d\n", k, core.MaxFeasibleN(k, gpu.TeslaS10(), 40000))
}
