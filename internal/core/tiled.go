package core

import (
	"context"
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
)

// The tiled pipeline implements the paper's stated future work: "Future
// work will address this issue by eliminating the reliance on storing
// n-by-n matrices in the GPU's device memory" (§V) and "swapping matrices
// out to the host memory or to disk as necessary" (§IV.A).
//
// Instead of two n×n scratch matrices, the device holds a 2×(C×n) scratch
// for C resident threads and the main kernel is launched ⌈n/C⌉ times,
// each chunk of C observations reusing the same scratch rows. Total
// arithmetic is unchanged; the memory footprint drops from O(n²) to
// O(C·n), which moves the 4 GB wall from the paper's n ≈ 20,000 out past
// n = 100,000.

// TiledOptions configures the tiled device pipeline.
type TiledOptions struct {
	// Props describes the simulated device; zero selects TeslaS10.
	Props gpu.Properties
	// ChunkSize is the number of resident threads C sharing the scratch;
	// 0 picks the largest C whose scratch fits free device memory.
	ChunkSize int
	// KeepScores copies the CV score vector back to the host.
	KeepScores bool
	// Uncompensated reverts the sweep and score reductions to plain
	// float32 accumulation, as in GPUOptions.Uncompensated.
	Uncompensated bool
}

// gpuOptions is the device-pipeline configuration the tiled pipeline
// runs with: full-size blocks and reductions, the Epanechnikov kernel.
func (o TiledOptions) gpuOptions() GPUOptions {
	return GPUOptions{Props: o.Props, KeepScores: o.KeepScores, Uncompensated: o.Uncompensated}.withDefaults()
}

// autoChunk picks the largest chunk C ≤ n whose 2×C×n float32 scratch
// fits the device memory left after the fixed pipeline allocations, with
// 5% headroom for alignment. Returns an error when even C = 1 does not
// fit (n itself too large for the accumulator matrices).
func autoChunk(n, k int, props gpu.Properties) (int, error) {
	fixed := int64(n+n+4*n*k+k*n+k+2) * 4 // x, y, 4 accumulators, resid, cv, out
	budget := props.GlobalMemBytes - fixed
	budget -= budget / 20 // alignment/fragmentation headroom
	if budget <= 0 {
		return 0, fmt.Errorf("core: tiled pipeline fixed allocations (%d bytes) exceed device memory", fixed)
	}
	c := int(budget / int64(2*n*4))
	if c < 1 {
		return 0, fmt.Errorf("core: no room for even one scratch row of %d elements", n)
	}
	if c > n {
		c = n
	}
	return c, nil
}

// tiledChunk resolves the chunk size: chunkSize when positive, else
// autoChunk's, and never more than n.
func tiledChunk(n, k, chunkSize int, props gpu.Properties) (int, error) {
	if chunkSize <= 0 {
		return autoChunk(n, k, props)
	}
	return min(chunkSize, n), nil
}

// SelectGPUTiled runs the tiled pipeline functionally and returns the
// selection, a device report, and the chunk size used. Results are
// identical to SelectGPU: the per-observation arithmetic is unchanged,
// only scratch reuse differs.
//
// ctx is polled at tile granularity: before every chunk launch (each
// chunk is C observations of device work) and once per reduction, so the
// ⌈n/C⌉-launch structure that fixes the memory wall also bounds the
// cancellation latency. Cancellation returns ctx.Err() and a zero Result.
func SelectGPUTiled(ctx context.Context, x, y []float64, g bandwidth.Grid, opt TiledOptions) (bandwidth.Result, *GPUReport, int, error) {
	if err := checkInputs(x, y, g); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	gopt := opt.gpuOptions()
	dev, err := gpu.NewDevice(gopt.Props, gpu.Functional)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	n, k := len(x), g.Len()
	chunk, err := tiledChunk(n, k, opt.ChunkSize, gopt.Props)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	res, report, err := selectOnDevice(ctx, dev, tiledLayout(n, k, chunk), x, y, g, gopt)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	return res, report, chunk, nil
}

// PlanGPUTiled costs the tiled pipeline in planning mode: identical
// arithmetic to PlanGPU plus one launch overhead per chunk, with the
// O(C·n) memory footprint. It succeeds at sample sizes far beyond the
// untiled pipeline's wall.
func PlanGPUTiled(n, k, chunkSize int, props gpu.Properties) (Plan, int, error) {
	chunk, err := tiledChunk(n, k, chunkSize, props)
	if err != nil {
		return Plan{}, 0, err
	}
	p, err := planPipeline(tiledLayout(n, k, chunk), props)
	if err != nil {
		return Plan{}, 0, err
	}
	plan := p.plan()
	plan.ConstBytes = k * 4
	return plan, chunk, nil
}

// MaxFeasibleNTiled returns the largest sample size the tiled pipeline
// fits on the device — bounded by the n×k accumulators and one scratch
// row, not by n×n matrices.
func MaxFeasibleNTiled(k int, props gpu.Properties, hi int) int {
	fits := func(n int) bool {
		_, _, err := PlanGPUTiled(n, k, 0, props)
		return err == nil
	}
	if fits(hi) {
		return hi
	}
	lo := 2
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
