package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

// GPUOptions configures the device pipeline.
type GPUOptions struct {
	// Props describes the simulated device; the zero value selects the
	// paper's Tesla S10 profile.
	Props gpu.Properties
	// BlockDim is the main kernel's threads per block; 0 selects the
	// device maximum (512 on the paper's GPU, which the paper found
	// fastest).
	BlockDim int
	// ReduceDim is the reduction block size T; 0 selects the device
	// maximum. Must be a power of two when set.
	ReduceDim int
	// UseIndexArgMin selects the footnote-2 arg-min variant that carries
	// grid indices instead of bandwidth values through shared memory.
	UseIndexArgMin bool
	// KeepScores copies the full CV score vector back to the host.
	KeepScores bool
	// Kernel selects the device kernel weighting function. The device
	// program supports the compact prefix-decomposable set of the
	// paper's footnote 1: Epanechnikov (default), Uniform, Triangular.
	Kernel kernel.Kind
	// NoIndexSwitch disables the paper's index-switch optimisation: the
	// residual matrix keeps the n×k layout, residual writes become
	// uncoalesced, and the per-bandwidth reductions read strided memory.
	// Ablation only (DESIGN.md decision 4); results are identical.
	NoIndexSwitch bool
	// Uncompensated reverts the main kernel's bandwidth sweep and the
	// per-bandwidth score reductions to the paper's plain float32
	// accumulation. The default (false) uses Neumaier compensation in the
	// sweep's running prefix sums and the reductions' strided folds,
	// which bounds the cancellation error that fast sum updating
	// accumulates at large n. Kept for ablation and for bit-exact
	// agreement with the original program.
	Uncompensated bool
}

func (o GPUOptions) withDefaults() GPUOptions {
	if o.Props.SMCount == 0 {
		o.Props = gpu.TeslaS10()
	}
	if o.BlockDim == 0 {
		o.BlockDim = o.Props.MaxThreadsPerBlock
	}
	if o.ReduceDim == 0 {
		o.ReduceDim = o.Props.MaxThreadsPerBlock
	}
	return o
}

// GPUReport describes what the simulated device did during a selection:
// memory high-water mark, per-label modelled time, operation tallies.
type GPUReport struct {
	ModelSeconds float64            // total modelled device+transfer time
	Mem          gpu.MemInfo        // allocator state after the run
	Stats        gpu.DeviceStats    // launches, memcpys, tallies
	TimeByLabel  map[string]float64 // modelled seconds per activity class
	TimeByKernel map[string]float64 // modelled seconds per kernel name
	Events       []gpu.ClockEvent   // the full modelled-time ledger
	MainTally    gpu.Tally          // the main kernel's tally
}

// SelectGPU runs Program 4 — the paper's CUDA program — functionally on a
// simulated device and returns the selected bandwidth, a device report,
// and any device error (out-of-memory above the capacity cliff, constant
// cache overflow for k > 2048, launch faults).
//
// Pipeline, following the paper's §IV.A–B:
//  1. allocate device arrays: X, Y (n), the two n×n scratch matrices, the
//     n×k accumulator matrices, the index-switched k×n residual matrix,
//     the k-vector of CV scores; upload the bandwidth grid to constant
//     memory (which enforces k ≤ 2048);
//  2. main kernel, one thread per observation: fill own row, iterative
//     QuickSort of the row, incremental sweep over the ascending
//     bandwidths, leave-one-out residuals written with switched indices;
//  3. k summation reductions (one per bandwidth) and one arg-min
//     reduction, both Harris-style single-block trees;
//  4. copy the winner back.
//
// ctx is polled at the pipeline-stage boundaries the host controls:
// before the upload, before the main kernel, and once per reduction
// launch (the k summation reductions dominate the post-kernel host
// loop). A single simulated kernel launch is atomic — exactly as a real
// CUDA launch is — so cancellation granularity inside the device is one
// launch; the tiled pipeline offers finer per-chunk cancellation.
// Cancellation returns ctx.Err() and a zero Result.
func SelectGPU(ctx context.Context, x, y []float64, g bandwidth.Grid, opt GPUOptions) (bandwidth.Result, *GPUReport, error) {
	if err := checkInputs(x, y, g); err != nil {
		return bandwidth.Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return bandwidth.Result{}, nil, err
	}
	opt = opt.withDefaults()
	switch opt.Kernel {
	case kernel.Epanechnikov, kernel.Uniform, kernel.Triangular:
	default:
		return bandwidth.Result{}, nil, fmt.Errorf("core: device program supports epanechnikov, uniform, triangular; got %v", opt.Kernel)
	}
	dev, err := gpu.NewDevice(opt.Props, gpu.Functional)
	if err != nil {
		return bandwidth.Result{}, nil, err
	}
	return selectOnDevice(ctx, dev, programLayout(len(x), g.Len()), x, y, g, opt)
}

// reduceDim picks the reduction block size: the requested power of two,
// shrunk to the smallest power of two covering n when that is smaller.
func reduceDim(want, n int) int {
	d := mathx.NextPow2(n)
	if d > want {
		d = want
	}
	if d < 1 {
		d = 1
	}
	return d
}

// VerifyAgreement cross-checks two results the way the paper's §IV.C
// protocol does: the selected bandwidths must be identical grid points and
// the CV scores must agree within tol (relative). It returns a descriptive
// error on disagreement.
func VerifyAgreement(a, b bandwidth.Result, tol float64) error {
	if a.Index != b.Index {
		return fmt.Errorf("core: selected bandwidth disagrees: index %d (h=%g, cv=%g) vs index %d (h=%g, cv=%g)",
			a.Index, a.H, a.CV, b.Index, b.H, b.CV)
	}
	if d := mathx.RelDiff(a.CV, b.CV); d > tol || math.IsNaN(d) {
		return fmt.Errorf("core: CV scores disagree by %g (> %g): %g vs %g", d, tol, a.CV, b.CV)
	}
	return nil
}
