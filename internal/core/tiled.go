package core

import (
	"context"
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/cuda"
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

func (o TiledOptions) withDefaults() TiledOptions {
	if o.Props.SMCount == 0 {
		o.Props = gpu.TeslaS10()
	}
	return o
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
	opt = opt.withDefaults()
	dev, err := gpu.NewDevice(opt.Props, gpu.Functional)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	n := len(x)
	k := g.Len()
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk, err = autoChunk(n, k, opt.Props)
		if err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
	}
	if chunk > n {
		chunk = n
	}

	bwSym, err := dev.UploadConstant("bandwidths", toF32(g.H))
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	bufs, err := allocTiled(dev, n, k, chunk)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	if err := dev.CopyToDevice(bufs.dX, toF32(x)); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	if err := dev.CopyToDevice(bufs.dY, toF32(y)); err != nil {
		return bandwidth.Result{}, nil, 0, err
	}

	var mainTally gpu.Tally
	for start := 0; start < n; start += chunk {
		if err := ctx.Err(); err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
		count := chunk
		if start+count > n {
			count = n - start
		}
		t, err := launchTiledChunk(dev, bufs, bwSym, n, k, start, count, opt.Props.MaxThreadsPerBlock, opt.Uncompensated)
		if err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
		mainTally.Add(t)
	}

	redDim := reduceDim(opt.Props.MaxThreadsPerBlock, n)
	sumReduce := cuda.SumReduceKahan
	if opt.Uncompensated {
		sumReduce = cuda.SumReduce
	}
	for jh := 0; jh < k; jh++ {
		if err := ctx.Err(); err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
		if err := sumReduce(dev, bufs.dResid, jh*n, n, bufs.dCV, jh, redDim); err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
	}
	argDim := reduceDim(opt.Props.MaxThreadsPerBlock, k)
	am, err := cuda.ArgMinReduce(dev, bufs.dCV, k, bwSym, bufs.dOut, argDim)
	if err != nil {
		return bandwidth.Result{}, nil, 0, err
	}
	res := bandwidth.Result{
		H:     float64(am.Bandwidth),
		CV:    float64(am.Score) / float64(n),
		Index: am.Index,
	}
	if opt.KeepScores {
		host := make([]float32, k)
		if err := dev.CopyFromDevice(host, bufs.dCV); err != nil {
			return bandwidth.Result{}, nil, 0, err
		}
		res.Scores = make([]float64, k)
		for jh, s := range host {
			res.Scores[jh] = float64(s) / float64(n)
		}
	}
	report := &GPUReport{
		ModelSeconds: dev.Clock().Seconds(),
		Mem:          dev.MemInfo(),
		Stats:        dev.Stats(),
		TimeByLabel:  dev.Clock().ByLabel(),
		TimeByKernel: dev.Clock().ByFullLabel(),
		MainTally:    mainTally,
	}
	return res, report, chunk, nil
}

// tiledBuffers mirrors pipelineBuffers with C×n scratch instead of n×n.
type tiledBuffers struct {
	dX, dY         gpu.Buffer // n
	dAbsD, dYM     gpu.Buffer // C×n scratch
	dSumY, dSumYD2 gpu.Buffer // n×k
	dSumD2, dCnt   gpu.Buffer // n×k
	dResid         gpu.Buffer // k×n
	dCV            gpu.Buffer // k
	dOut           gpu.Buffer // 2
}

func allocTiled(dev *gpu.Device, n, k, chunk int) (tiledBuffers, error) {
	var b tiledBuffers
	var err error
	alloc := func(dst *gpu.Buffer, elems int, label string) {
		if err != nil {
			return
		}
		*dst, err = dev.Malloc(elems, label)
	}
	alloc(&b.dX, n, "x")
	alloc(&b.dY, n, "y")
	alloc(&b.dAbsD, chunk*n, "absdiff[C×n]")
	alloc(&b.dYM, chunk*n, "ymatrix[C×n]")
	alloc(&b.dSumY, n*k, "sumY[n×k]")
	alloc(&b.dSumYD2, n*k, "sumYd2[n×k]")
	alloc(&b.dSumD2, n*k, "sumD2[n×k]")
	alloc(&b.dCnt, n*k, "count[n×k]")
	alloc(&b.dResid, k*n, "resid[k×n]")
	alloc(&b.dCV, k, "cv[k]")
	alloc(&b.dOut, 2, "out[2]")
	if err != nil {
		return tiledBuffers{}, err
	}
	return b, nil
}

// launchTiledChunk runs the main kernel for observations
// [start, start+count): thread t handles observation start+t using
// scratch row t. The body is the same four phases as launchMainKernel.
func launchTiledChunk(dev *gpu.Device, b tiledBuffers, bwSym *gpu.ConstSymbol, n, k, start, count, blockDim int, uncompensated bool) (gpu.Tally, error) {
	if blockDim > dev.Props().MaxThreadsPerBlock {
		blockDim = dev.Props().MaxThreadsPerBlock
	}
	if blockDim > count {
		blockDim = count
	}
	cfg := gpu.LaunchConfig{GridDim: (count + blockDim - 1) / blockDim, BlockDim: blockDim}
	attrs := gpu.KernelAttrs{Name: "bandwidthMainTiled", UsesBarrier: false}
	return dev.Launch(attrs, cfg, func(tc *gpu.ThreadCtx) {
		t := tc.GlobalID()
		if t >= count {
			return
		}
		j := start + t
		xs := tc.GlobalSlice(b.dX, 0, n)
		ys := tc.GlobalSlice(b.dY, 0, n)
		absRow := tc.GlobalSlice(b.dAbsD, t*n, n)
		yRow := tc.GlobalSlice(b.dYM, t*n, n)

		xj := xs[j]
		for i := 0; i < n; i++ {
			d := xs[i] - xj
			if d < 0 {
				d = -d
			}
			absRow[i] = d
			yRow[i] = ys[i]
		}
		tc.ChargeOps(int64(3 * n))
		tc.SetAccessPattern(gpu.Coalesced)
		tc.ChargeGlobalRead(int64(2*n+1) * 4)
		tc.SetAccessPattern(gpu.Uncoalesced)
		tc.ChargeGlobalWrite(int64(2*n) * 4)

		sc := cuda.DeviceQuickSort(absRow, yRow)
		cuda.ChargeSort(tc, sc)

		sy := compAcc32{plain: uncompensated}
		syd2 := compAcc32{plain: uncompensated}
		sd2 := compAcc32{plain: uncompensated}
		cnt := 0
		ptr := 0
		sweepReads := 0
		for jh := 0; jh < k; jh++ {
			h := tc.Const(bwSym, jh)
			for ptr < n && absRow[ptr] <= h {
				d := absRow[ptr]
				d2 := d * d
				yv := yRow[ptr]
				sy.add(yv)
				syd2.add(yv * d2)
				sd2.add(d2)
				cnt++
				ptr++
				sweepReads += 2
			}
			base := j*k + jh
			tc.Store(b.dSumY, base, sy.sum())
			tc.Store(b.dSumYD2, base, syd2.sum())
			tc.Store(b.dSumD2, base, sd2.sum())
			tc.Store(b.dCnt, base, float32(cnt))
		}
		if uncompensated {
			tc.ChargeOps(int64(6*ptr + 2*k))
		} else {
			tc.ChargeOps(int64(15*ptr + 2*k))
		}
		tc.ChargeGlobalRead(int64(sweepReads) * 4)

		yj := ys[j]
		for jh := 0; jh < k; jh++ {
			h := tc.Const(bwSym, jh)
			base := j*k + jh
			sY := tc.Load(b.dSumY, base)
			sYD2 := tc.Load(b.dSumYD2, base)
			sD2 := tc.Load(b.dSumD2, base)
			c := tc.Load(b.dCnt, base)
			h2 := h * h
			den := 0.75 * ((c - 1) - sD2/h2)
			var r2 float32
			if den > 0 {
				num := 0.75 * ((sY - yj) - sYD2/h2)
				r := yj - num/den
				r2 = r * r
			}
			tc.SetAccessPattern(gpu.Coalesced)
			tc.Store(b.dResid, jh*n+j, r2)
			tc.SetAccessPattern(gpu.Uncoalesced)
			tc.ChargeOps(10)
		}
	})
}

// PlanGPUTiled costs the tiled pipeline in planning mode: identical
// arithmetic to PlanGPU plus one launch overhead per chunk, with the
// O(C·n) memory footprint. It succeeds at sample sizes far beyond the
// untiled pipeline's wall.
func PlanGPUTiled(n, k, chunkSize int, props gpu.Properties) (Plan, int, error) {
	dev, err := gpu.NewDevice(props, gpu.Planning)
	if err != nil {
		return Plan{}, 0, err
	}
	chunk := chunkSize
	if chunk <= 0 {
		chunk, err = autoChunk(n, k, props)
		if err != nil {
			return Plan{}, 0, err
		}
	}
	if chunk > n {
		chunk = n
	}
	if _, err := dev.UploadConstant("bandwidths", make([]float32, k)); err != nil {
		return Plan{}, 0, err
	}
	bufs, err := allocTiled(dev, n, k, chunk)
	if err != nil {
		return Plan{}, 0, err
	}
	host := make([]float32, n)
	if err := dev.CopyToDevice(bufs.dX, host); err != nil {
		return Plan{}, 0, err
	}
	if err := dev.CopyToDevice(bufs.dY, host); err != nil {
		return Plan{}, 0, err
	}
	for start := 0; start < n; start += chunk {
		count := chunk
		if start+count > n {
			count = n - start
		}
		dev.LaunchPlanned("bandwidthMainTiled", mainKernelPlanThreads(count, n, k, props))
	}
	redDim := reduceDim(props.MaxThreadsPerBlock, n)
	for jh := 0; jh < k; jh++ {
		dev.LaunchPlanned("sumReduce", SumReducePlan(n, redDim, props))
	}
	argDim := reduceDim(props.MaxThreadsPerBlock, k)
	dev.LaunchPlanned("argMinReduce", ArgMinPlan(k, argDim, props))
	out := make([]float32, 2)
	if err := dev.CopyFromDevice(out, bufs.dOut); err != nil {
		return Plan{}, 0, err
	}
	return Plan{
		N:           n,
		K:           k,
		Seconds:     dev.Clock().Seconds(),
		Mem:         dev.MemInfo(),
		TimeByLabel: dev.Clock().ByLabel(),
		KernelTally: dev.Stats().KernelTally,
		ConstBytes:  k * 4,
	}, chunk, nil
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
