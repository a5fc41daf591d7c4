package core

import (
	"context"

	"repro/internal/bandwidth"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/kernel"
)

// The device pipeline. Program 4 (SelectGPU, PlanGPU), the tiled pipeline
// of the paper's future work (SelectGPUTiled, PlanGPUTiled) and one
// device's share of a fleet (SelectGPUFleet, PlanGPUMulti) run the same
// stages on one device, in either gpu.Functional or gpu.Planning mode:
//
//  1. upload the bandwidth grid to constant memory (k ≤ 2048) and
//     allocate X, Y, the two scratch matrices, the four accumulator
//     matrices, the residual matrix and the k-vector of CV sums;
//  2. copy X and Y to the device;
//  3. launch the main kernel over the device's observations, one thread
//     per observation: fill its row, QuickSort it, sweep the ascending
//     grid, write index-switched leave-one-out residuals;
//  4. run one summation reduction per bandwidth over the residuals.
//
// A pipeline differs from the others only in the deviceLayout it supplies.

// deviceLayout is the shape of one pipeline on one device.
type deviceLayout struct {
	name string // main kernel name, as the modelled-time ledger shows it
	n, k int
	// start and count bound the observations [start, start+count) this
	// device sweeps. Accumulator rows and residual columns are indexed
	// from start, so count is also the residual matrix's stride.
	start, count int
	// chunk is the number of observations per main-kernel launch, and so
	// the row count of the two scratch matrices.
	chunk int
	// rowsTag and obsTag label the scratch rows and the accumulator rows
	// in buffer names: "absdiff[C×n]", "sumY[n×k]", "resid[k×share]".
	rowsTag, obsTag string
	// argMin allocates the two-float output of the device arg-min. The
	// fleet share leaves the arg-min to the host combine.
	argMin bool
}

// programLayout is Program 4: one launch over [0, n) with n×n scratch.
func programLayout(n, k int) deviceLayout {
	return deviceLayout{name: "bandwidthMain", n: n, k: k, count: n, chunk: n, rowsTag: "n", obsTag: "n", argMin: true}
}

// tiledLayout is the tiled pipeline: ⌈n/chunk⌉ launches sharing chunk×n
// scratch, with n×k accumulators.
func tiledLayout(n, k, chunk int) deviceLayout {
	return deviceLayout{name: "bandwidthMainTiled", n: n, k: k, count: n, chunk: chunk, rowsTag: "C", obsTag: "n", argMin: true}
}

// shareLayout is one fleet device's share: one launch over
// [start, start+count) with count×n scratch and count×k accumulators.
func shareLayout(n, k, start, count int) deviceLayout {
	return deviceLayout{name: "bandwidthMainShare", n: n, k: k, start: start, count: count, chunk: count, rowsTag: "share", obsTag: "share"}
}

// deviceBuffers holds one pipeline's device allocations.
type deviceBuffers struct {
	dX, dY         gpu.Buffer // n
	dAbsD, dYM     gpu.Buffer // chunk×n scratch matrices
	dSumY, dSumYD2 gpu.Buffer // count×k accumulators
	dSumD2, dCnt   gpu.Buffer // count×k accumulators
	dResid         gpu.Buffer // k×count (index-switched) squared residuals
	dCV            gpu.Buffer // k
	dOut           gpu.Buffer // 2 (min score, best bandwidth); argMin only
}

// allocPipeline performs the paper's allocation sequence for layout l. In
// Program 4 the two n×n matrices dominate and produce the out-of-memory
// failure above n = 20,000 on the 4 GB profile. The paper's description
// tracks two n×k sum matrices explicitly; the Epanechnikov leave-one-out
// estimator also needs the in-range ΣY and count per (observation,
// bandwidth), so four accumulator matrices are allocated — the capacity
// cliff is unaffected (at n = 20,000, k = 50 they total 16 MB against the
// n×n matrices' 3.2 GB).
func allocPipeline(dev *gpu.Device, l deviceLayout) (deviceBuffers, error) {
	var b deviceBuffers
	var err error
	alloc := func(dst *gpu.Buffer, elems int, label string) {
		if err != nil {
			return
		}
		*dst, err = dev.Malloc(elems, label)
	}
	scratch := "[" + l.rowsTag + "×n]"
	acc := "[" + l.obsTag + "×k]"
	alloc(&b.dX, l.n, "x")
	alloc(&b.dY, l.n, "y")
	alloc(&b.dAbsD, l.chunk*l.n, "absdiff"+scratch)
	alloc(&b.dYM, l.chunk*l.n, "ymatrix"+scratch)
	alloc(&b.dSumY, l.count*l.k, "sumY"+acc)
	alloc(&b.dSumYD2, l.count*l.k, "sumYd2"+acc)
	alloc(&b.dSumD2, l.count*l.k, "sumD2"+acc)
	alloc(&b.dCnt, l.count*l.k, "count"+acc)
	alloc(&b.dResid, l.k*l.count, "resid[k×"+l.obsTag+"]")
	alloc(&b.dCV, l.k, "cv[k]")
	if l.argMin {
		alloc(&b.dOut, 2, "out[2]")
	}
	if err != nil {
		return deviceBuffers{}, err
	}
	return b, nil
}

// devicePipeline is one layout set up on one device.
type devicePipeline struct {
	dev *gpu.Device
	l   deviceLayout
	b   deviceBuffers
	bw  *gpu.ConstSymbol
}

// startPipeline uploads the grid, allocates l's buffers and copies X and
// Y. In planning mode x, y and h are ignored: zeros of their lengths are
// charged instead.
func startPipeline(dev *gpu.Device, l deviceLayout, x, y, h []float64) (*devicePipeline, error) {
	var hf, xf, yf []float32
	if dev.Mode() == gpu.Functional {
		hf, xf, yf = toF32(h), toF32(x), toF32(y)
	} else {
		hf, xf = make([]float32, l.k), make([]float32, l.n)
		yf = xf
	}
	bw, err := dev.UploadConstant("bandwidths", hf)
	if err != nil {
		return nil, err
	}
	b, err := allocPipeline(dev, l)
	if err != nil {
		return nil, err
	}
	if err := dev.CopyToDevice(b.dX, xf); err != nil {
		return nil, err
	}
	if err := dev.CopyToDevice(b.dY, yf); err != nil {
		return nil, err
	}
	return &devicePipeline{dev: dev, l: l, b: b, bw: bw}, nil
}

// sweep launches the main kernel over the layout's observations, chunk
// observations per launch, polling ctx before each launch, and returns
// the launches' summed tally (zero in planning mode, where each launch is
// charged its analytic tally).
func (p *devicePipeline) sweep(ctx context.Context, opt GPUOptions) (gpu.Tally, error) {
	var total gpu.Tally
	end := p.l.start + p.l.count
	for first := p.l.start; first < end; first += p.l.chunk {
		if err := ctx.Err(); err != nil {
			return gpu.Tally{}, err
		}
		count := min(p.l.chunk, end-first)
		if p.dev.Mode() == gpu.Planning {
			p.dev.LaunchPlanned(p.l.name, mainKernelPlanThreads(count, p.l.n, p.l.k, p.dev.Props()))
			continue
		}
		t, err := p.launchMain(first, count, opt)
		if err != nil {
			return gpu.Tally{}, err
		}
		total.Add(t)
	}
	return total, nil
}

// launchMain runs the paper's main kernel over observations
// [first, first+count): thread t fills scratch row t with observation
// j = first+t's distance and Y rows, sorts them with the iterative
// QuickSort, performs the incremental bandwidth sweep into the
// accumulators, and finally writes leave-one-out squared residuals into
// the residual matrix with switched indices (k groups of count) so the
// per-bandwidth reductions read coalesced memory.
func (p *devicePipeline) launchMain(first, count int, opt GPUOptions) (gpu.Tally, error) {
	n, k, start, stride := p.l.n, p.l.k, p.l.start, p.l.count
	b, bwSym := p.b, p.bw
	kern, noSwitch, uncompensated := opt.Kernel, opt.NoIndexSwitch, opt.Uncompensated
	blockDim := min(opt.BlockDim, p.dev.Props().MaxThreadsPerBlock, count)
	cfg := gpu.LaunchConfig{GridDim: (count + blockDim - 1) / blockDim, BlockDim: blockDim}
	attrs := gpu.KernelAttrs{Name: p.l.name, UsesBarrier: false}
	return p.dev.Launch(attrs, cfg, func(tc *gpu.ThreadCtx) {
		t := tc.GlobalID()
		if t >= count {
			return
		}
		j := first + t   // observation
		row := j - start // accumulator row and residual column
		xs := tc.GlobalSlice(b.dX, 0, n)
		ys := tc.GlobalSlice(b.dY, 0, n)
		absRow := tc.GlobalSlice(b.dAbsD, t*n, n)
		yRow := tc.GlobalSlice(b.dYM, t*n, n)

		// Phase 1: fill. Reads of X/Y are warp-broadcast (every thread
		// reads the same element per iteration) and charge as
		// coalesced; the row writes walk per-thread rows and are fully
		// uncoalesced.
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

		// Phase 2: each thread performs its own complete sort of its
		// row (in-place in global memory, uncoalesced).
		sc := cuda.DeviceQuickSort(absRow, yRow)
		cuda.ChargeSort(tc, sc)

		// Phase 3: incremental sweep across the ascending bandwidth
		// grid. For the Epanechnikov kernel the accumulators are Σy,
		// Σy·d², Σd²; for the Triangular they are Σy, Σy·|d|, Σ|d|; for
		// the Uniform just Σy — the count rides along in all cases
		// (footnote 1's prefix-decomposable set). By default the three
		// running sums carry Neumaier compensation: the sum and carry
		// are per-thread registers, so the stabilised sweep costs extra
		// flops but no extra memory traffic. The stored per-bandwidth
		// snapshots stay plain float32, as the matrices' layout demands.
		sy := compAcc32{plain: uncompensated}
		syAux := compAcc32{plain: uncompensated}
		sAux := compAcc32{plain: uncompensated}
		cnt := 0
		ptr := 0
		sweepReads := 0
		for jh := 0; jh < k; jh++ {
			h := tc.Const(bwSym, jh)
			for ptr < n && absRow[ptr] <= h {
				d := absRow[ptr]
				yv := yRow[ptr]
				sy.add(yv)
				switch kern {
				case kernel.Uniform:
					// count and Σy suffice
				case kernel.Triangular:
					syAux.add(yv * d)
					sAux.add(d)
				default: // Epanechnikov
					d2 := d * d
					syAux.add(yv * d2)
					sAux.add(d2)
				}
				cnt++
				ptr++
				sweepReads += 2
			}
			base := row*k + jh
			tc.Store(b.dSumY, base, sy.sum())
			tc.Store(b.dSumYD2, base, syAux.sum())
			tc.Store(b.dSumD2, base, sAux.sum())
			tc.Store(b.dCnt, base, float32(cnt))
		}
		if uncompensated {
			tc.ChargeOps(int64(6*ptr + 2*k))
		} else {
			// Compensation quadruples each accumulate: ~4 flops per Add.
			tc.ChargeOps(int64(15*ptr + 2*k))
		}
		tc.ChargeGlobalRead(int64(sweepReads) * 4)

		// Phase 4: combine the accumulator matrices into leave-one-out
		// squared residuals. Reads are uncoalesced (stride-k rows);
		// the residual writes switch indices — resid[jh·count + row] —
		// so that warp-adjacent threads write adjacent addresses
		// (coalesced), the paper's bank-conflict optimisation.
		yj := ys[j]
		for jh := 0; jh < k; jh++ {
			h := tc.Const(bwSym, jh)
			base := row*k + jh
			sY := tc.Load(b.dSumY, base)
			sYAux := tc.Load(b.dSumYD2, base)
			sAux := tc.Load(b.dSumD2, base)
			c := tc.Load(b.dCnt, base)
			// Leave-one-out correction: the self term (distance 0) adds
			// yj to Σy, K(0)-dependent nothing to the aux sums, and one
			// to the count.
			var num, den float32
			switch kern {
			case kernel.Uniform:
				num = 0.5 * (sY - yj)
				den = 0.5 * (c - 1)
			case kernel.Triangular:
				num = (sY - yj) - sYAux/h
				den = (c - 1) - sAux/h
			default: // Epanechnikov
				h2 := h * h
				num = 0.75 * ((sY - yj) - sYAux/h2)
				den = 0.75 * ((c - 1) - sAux/h2)
			}
			var r2 float32
			if den > 0 {
				r := yj - num/den
				r2 = r * r
			}
			if noSwitch {
				// Ablation: unswitched count×k layout — warp-adjacent
				// threads write addresses k elements apart.
				tc.Store(b.dResid, base, r2)
			} else {
				tc.SetAccessPattern(gpu.Coalesced)
				tc.Store(b.dResid, jh*stride+row, r2)
				tc.SetAccessPattern(gpu.Uncoalesced)
			}
			tc.ChargeOps(10)
		}
	})
}

// reduce runs one summation reduction per bandwidth ("a summation
// reduction is performed k times, once for each bandwidth"), folding each
// residual row into the CV vector and polling ctx before each launch.
// Compensated runs use the Kahan strided fold; the NoIndexSwitch ablation
// keeps the plain strided reduction in both modes, since it exists to
// reproduce the original program's memory traffic.
func (p *devicePipeline) reduce(ctx context.Context, opt GPUOptions) error {
	dev, b, m, k := p.dev, p.b, p.l.count, p.l.k
	redDim := reduceDim(opt.ReduceDim, m)
	for jh := 0; jh < k; jh++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		switch {
		case dev.Mode() == gpu.Planning:
			dev.LaunchPlanned("sumReduce", SumReducePlan(m, redDim, dev.Props()))
		case opt.NoIndexSwitch:
			err = cuda.SumReduceStrided(dev, b.dResid, jh, m, k, b.dCV, jh, redDim)
		case opt.Uncompensated:
			err = cuda.SumReduce(dev, b.dResid, jh*m, m, b.dCV, jh, redDim)
		default:
			err = cuda.SumReduceKahan(dev, b.dResid, jh*m, m, b.dCV, jh, redDim)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// argMin runs the final arg-min reduction over the CV vector (the
// footnote-2 index variant when opt asks for it) and reads the winner
// back. In planning mode it charges the launch and the copy and returns a
// zero result.
func (p *devicePipeline) argMin(opt GPUOptions) (cuda.ArgMinResult, error) {
	dev, b, k := p.dev, p.b, p.l.k
	argDim := reduceDim(opt.ReduceDim, k)
	switch {
	case dev.Mode() == gpu.Planning:
		dev.LaunchPlanned("argMinReduce", ArgMinPlan(k, argDim, dev.Props()))
		return cuda.ArgMinResult{}, dev.CopyFromDevice(make([]float32, 2), b.dOut)
	case opt.UseIndexArgMin:
		return cuda.ArgMinIndexReduce(dev, b.dCV, k, p.bw, b.dOut, argDim)
	default:
		return cuda.ArgMinReduce(dev, b.dCV, k, p.bw, b.dOut, argDim)
	}
}

// selectOnDevice runs a whole-sample layout functionally on dev — sweep,
// reductions, device arg-min — and reports the selection and what the
// device did. opt must have its defaults applied.
func selectOnDevice(ctx context.Context, dev *gpu.Device, l deviceLayout, x, y []float64, g bandwidth.Grid, opt GPUOptions) (bandwidth.Result, *GPUReport, error) {
	p, err := startPipeline(dev, l, x, y, g.H)
	if err != nil {
		return bandwidth.Result{}, nil, err
	}
	mainTally, err := p.sweep(ctx, opt)
	if err != nil {
		return bandwidth.Result{}, nil, err
	}
	if err := p.reduce(ctx, opt); err != nil {
		return bandwidth.Result{}, nil, err
	}
	am, err := p.argMin(opt)
	if err != nil {
		return bandwidth.Result{}, nil, err
	}
	n := float64(l.n)
	res := bandwidth.Result{H: float64(am.Bandwidth), CV: float64(am.Score) / n, Index: am.Index}
	if opt.KeepScores {
		host := make([]float32, l.k)
		if err := dev.CopyFromDevice(host, p.b.dCV); err != nil {
			return bandwidth.Result{}, nil, err
		}
		res.Scores = make([]float64, l.k)
		for jh, s := range host {
			res.Scores[jh] = float64(s) / n
		}
	}
	return res, &GPUReport{
		ModelSeconds: dev.Clock().Seconds(),
		Mem:          dev.MemInfo(),
		Stats:        dev.Stats(),
		TimeByLabel:  dev.Clock().ByLabel(),
		TimeByKernel: dev.Clock().ByFullLabel(),
		Events:       dev.Clock().Events(),
		MainTally:    mainTally,
	}, nil
}

// planPipeline costs layout l in planning mode on a fresh device: every
// allocation, transfer and launch is charged, no data is touched.
func planPipeline(l deviceLayout, props gpu.Properties) (*devicePipeline, error) {
	dev, err := gpu.NewDevice(props, gpu.Planning)
	if err != nil {
		return nil, err
	}
	p, err := startPipeline(dev, l, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	opt := GPUOptions{Props: props}.withDefaults()
	ctx := context.Background()
	if _, err := p.sweep(ctx, opt); err != nil {
		return nil, err
	}
	if err := p.reduce(ctx, opt); err != nil {
		return nil, err
	}
	if l.argMin {
		if _, err := p.argMin(opt); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// plan reports a planned pipeline's modelled time, memory and tallies.
func (p *devicePipeline) plan() Plan {
	return Plan{
		N:           p.l.n,
		K:           p.l.k,
		Seconds:     p.dev.Clock().Seconds(),
		Mem:         p.dev.MemInfo(),
		TimeByLabel: p.dev.Clock().ByLabel(),
		KernelTally: p.dev.Stats().KernelTally,
	}
}
