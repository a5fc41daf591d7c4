package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/cuda"
	"repro/internal/gpu"
)

// Multi-GPU pipeline. The paper's test machine carried "two Tesla S10
// GPUs, each with 240 streaming cores and 4 GB of device-specific GPU
// memory", but the evaluated program uses one. Splitting the SPMD problem
// across D devices is the obvious completion: each device receives the
// full X and Y vectors plus scratch and accumulators for its own share of
// the observations, runs the identical main kernel over that share, and
// reduces its per-bandwidth partial sums; the host adds the D partial
// k-vectors and picks the arg-min. Devices run concurrently, so the
// modelled wall time is the maximum of the per-device clocks, and — as a
// bonus the paper's future-work section would appreciate — the per-device
// scratch is (n/D)×n, which moves the memory wall out by ≈√D·…/D.
//
// The sweep is scheduled against a gpu.Manager fleet rather than a fixed
// device loop, and it self-heals: a device that faults mid-sweep (XID,
// falls-off-bus, memory pressure) has its unfinished grid shards requeued
// onto the surviving devices. Correctness is unaffected by *which* device
// runs a shard — a shard's partial sums depend only on (x, y, g, start,
// count, opt) and the host combine adds them in shard order — so a run
// that survives a fault is bit-identical to a healthy run.

// MultiGPUResult extends the selection with per-device accounting.
type MultiGPUResult struct {
	bandwidth.Result
	Devices       int
	DeviceSeconds []float64 // modelled per-device pipeline time
	ModelSeconds  float64   // max over devices (they run concurrently)
	MemPeaks      []int64
	// Requeues counts shard executions abandoned on a faulted device and
	// re-run on a survivor. Zero on a healthy fleet.
	Requeues int
	// Degraded is the number of fleet devices left unhealthy when the
	// sweep completed.
	Degraded int
}

// ErrNoHealthyDevices is returned when every device in the fleet is
// unhealthy before the sweep finished — the one fault topology requeuing
// cannot recover from.
var ErrNoHealthyDevices = errors.New("core: no healthy devices remain in the fleet")

// SelectGPUMulti runs the paper's pipeline split across `devices`
// simulated GPUs: it builds a healthy simulated fleet of the requested
// size and runs SelectGPUFleet on it. devices ≤ 1 falls back to a single
// device (but still returns the MultiGPUResult shape). Cancellation
// returns ctx.Err() and a zero MultiGPUResult.
func SelectGPUMulti(ctx context.Context, x, y []float64, g bandwidth.Grid, devices int, opt GPUOptions) (MultiGPUResult, error) {
	if err := checkInputs(x, y, g); err != nil {
		return MultiGPUResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return MultiGPUResult{}, err
	}
	if devices < 1 {
		devices = 1
	}
	if devices > len(x) {
		devices = len(x)
	}
	opt = opt.withDefaults()
	m, err := gpu.NewSimManager(devices, opt.Props)
	if err != nil {
		return MultiGPUResult{}, err
	}
	return SelectGPUFleet(ctx, x, y, g, m, opt)
}

// fleetShard is one device-sized share [start, start+count) of the
// observations. idx is its position in the host combine, which is what
// makes the result independent of which device runs it.
type fleetShard struct {
	idx, start, count int
}

// SelectGPUFleet runs the multi-device sweep on an explicit
// device fleet. The observations are cut into min(DeviceCount, n)
// shards; each round assigns the pending shards round-robin over the
// currently healthy devices and runs one goroutine per device. A device
// fault (gpu.IsDeviceFault) abandons that device and requeues its
// unfinished shards for the next round; any other error is fatal. The
// returned result is bit-identical to a healthy run whenever at least
// one device survives, because partial sums are combined in shard order.
//
// ctx is polled between rounds, per shard, and inside each share once
// per reduction launch; cancellation returns ctx.Err() and a zero
// MultiGPUResult.
func SelectGPUFleet(ctx context.Context, x, y []float64, g bandwidth.Grid, m gpu.Manager, opt GPUOptions) (MultiGPUResult, error) {
	if err := checkInputs(x, y, g); err != nil {
		return MultiGPUResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return MultiGPUResult{}, err
	}
	opt = opt.withDefaults()
	n := len(x)
	k := g.Len()
	nd := m.DeviceCount()
	if nd < 1 {
		return MultiGPUResult{}, fmt.Errorf("%w: fleet is empty", ErrNoHealthyDevices)
	}
	numShards := nd
	if numShards > n {
		numShards = n
	}
	share := (n + numShards - 1) / numShards

	pending := make([]fleetShard, 0, numShards)
	for s := 0; s < numShards; s++ {
		start := s * share
		count := share
		if start+count > n {
			count = n - start
		}
		if count <= 0 {
			continue
		}
		pending = append(pending, fleetShard{idx: s, start: start, count: count})
	}

	// The combine's k-vector accumulator lives in a pooled workspace, so
	// every return path — including a cancellation that lands while
	// shards are being requeued — must give it back: defer handles all
	// of them.
	ws := bandwidth.AcquireWorkspace(n, k)
	defer ws.Release()

	partial := make([][]float32, numShards)
	secs := make([]float64, nd)
	peaks := make([]int64, nd)
	requeues := 0

	for round := 0; len(pending) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return MultiGPUResult{}, err
		}
		// The first round assigns optimistically to every device — faults
		// present before the sweep are discovered the way a CUDA program
		// discovers them, through a failing open/launch/copy, and the
		// shard requeues. Later rounds consult the health poll so a device
		// that already faulted is never retried.
		var alive []int
		for i := 0; i < nd; i++ {
			if round == 0 {
				alive = append(alive, i)
				continue
			}
			if h, err := m.DeviceHealth(i); err == nil && h.State == gpu.Healthy {
				alive = append(alive, i)
			}
		}
		if len(alive) == 0 {
			return MultiGPUResult{}, fmt.Errorf("%w: %d shards unfinished after %d requeues",
				ErrNoHealthyDevices, len(pending), requeues)
		}
		assign := make([][]fleetShard, len(alive))
		for i, s := range pending {
			assign[i%len(alive)] = append(assign[i%len(alive)], s)
		}

		var (
			mu       sync.Mutex
			requeued []fleetShard
			fatal    error
			wg       sync.WaitGroup
		)
		for wi := range alive {
			if len(assign[wi]) == 0 {
				continue
			}
			wg.Add(1)
			go func(di int, shards []fleetShard) {
				defer wg.Done()
				for si, s := range shards {
					if ctx.Err() != nil {
						return // the round loop surfaces ctx.Err()
					}
					sums, sec, peak, err := runFleetShard(ctx, m, di, x, y, g, s.start, s.count, opt)
					mu.Lock()
					if err != nil {
						switch {
						case ctx.Err() != nil:
							// Cancelled mid-share; nothing to record.
						case gpu.IsDeviceFault(err):
							// The device is gone: requeue everything it
							// had not finished, this shard included.
							requeued = append(requeued, shards[si:]...)
							requeues += len(shards) - si
						case fatal == nil:
							fatal = fmt.Errorf("device %d: %w", di, err)
						}
						mu.Unlock()
						return
					}
					partial[s.idx] = sums
					//kernvet:ignore compsum -- modelled wall-clock bookkeeping (a device's seconds across requeue rounds), not a numerics sweep; the CV sums are compensated inside the kernel
					secs[di] += sec
					if peak > peaks[di] {
						peaks[di] = peak
					}
					mu.Unlock()
				}
			}(alive[wi], assign[wi])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return MultiGPUResult{}, err
		}
		if fatal != nil {
			return MultiGPUResult{}, fatal
		}
		// Shard order in the next round is deterministic regardless of
		// which worker faulted first.
		sort.Slice(requeued, func(a, b int) bool { return requeued[a].idx < requeued[b].idx })
		pending = requeued
	}

	total := ws.GridBuf(k)
	for jh := 0; jh < k; jh++ {
		total = append(total, 0)
	}
	res := combineFleetPartials(g, partial, total, n)
	// total is pooled memory and Best aliases it into Scores: detach
	// before the deferred Release hands the workspace back.
	if opt.KeepScores {
		res.Scores = append([]float64(nil), res.Scores...)
	} else {
		res.Scores = nil
	}

	maxSec := 0.0
	for _, s := range secs {
		if s > maxSec {
			maxSec = s
		}
	}
	degraded := 0
	for i := 0; i < nd; i++ {
		if h, err := m.DeviceHealth(i); err == nil && h.State != gpu.Healthy {
			degraded++
		}
	}
	return MultiGPUResult{
		Result:        res,
		Devices:       numShards,
		DeviceSeconds: secs,
		ModelSeconds:  maxSec,
		MemPeaks:      peaks,
		Requeues:      requeues,
		Degraded:      degraded,
	}, nil
}

// combineFleetPartials is the fleet's host-side combine: it adds the
// per-shard partial per-bandwidth sums (k values per shard — trivial
// traffic) into total in shard-index order, divides by the sample
// size, and picks the arg-min with the same smallest-h tie-break as
// the device reduction. Shard order, not device order, keeps the
// result bit-identical whether or not shards were requeued. total must
// arrive zeroed with len(g.H) slots; Best aliases it into Scores.
//
//kernvet:bitexact
func combineFleetPartials(g bandwidth.Grid, partial [][]float32, total []float64, n int) bandwidth.Result {
	for _, p := range partial {
		if p == nil {
			continue
		}
		for jh, v := range p {
			total[jh] += float64(v)
		}
	}
	for jh := range total {
		total[jh] /= float64(n)
	}
	return bandwidth.Best(g, total)
}

// runFleetShard opens a fresh context on fleet device di and runs one
// shard's share of the pipeline on it.
func runFleetShard(ctx context.Context, m gpu.Manager, di int, x, y []float64, g bandwidth.Grid, start, count int, opt GPUOptions) ([]float32, float64, int64, error) {
	dev, err := m.Open(di)
	if err != nil {
		return nil, 0, 0, err
	}
	return runDeviceShare(ctx, dev, x, y, g, start, count, opt)
}

// runDeviceShare executes one device's share [start, start+count) of the
// pipeline and returns its per-bandwidth partial residual sums.
func runDeviceShare(ctx context.Context, dev *gpu.Device, x, y []float64, g bandwidth.Grid, start, count int, opt GPUOptions) ([]float32, float64, int64, error) {
	n := len(x)
	k := g.Len()
	bwSym, err := dev.UploadConstant("bandwidths", toF32(g.H))
	if err != nil {
		return nil, 0, 0, err
	}
	var dX, dY, dAbsD, dYM, dSumY, dSumYD2, dSumD2, dCnt, dResid, dCV gpu.Buffer
	alloc := func(dst *gpu.Buffer, elems int, label string) {
		if err != nil {
			return
		}
		*dst, err = dev.Malloc(elems, label)
	}
	alloc(&dX, n, "x")
	alloc(&dY, n, "y")
	alloc(&dAbsD, count*n, "absdiff[share×n]")
	alloc(&dYM, count*n, "ymatrix[share×n]")
	alloc(&dSumY, count*k, "sumY[share×k]")
	alloc(&dSumYD2, count*k, "sumYd2[share×k]")
	alloc(&dSumD2, count*k, "sumD2[share×k]")
	alloc(&dCnt, count*k, "count[share×k]")
	alloc(&dResid, k*count, "resid[k×share]")
	alloc(&dCV, k, "cv[k]")
	if err != nil {
		return nil, 0, 0, err
	}
	if err := dev.CopyToDevice(dX, toF32(x)); err != nil {
		return nil, 0, 0, err
	}
	if err := dev.CopyToDevice(dY, toF32(y)); err != nil {
		return nil, 0, 0, err
	}

	blockDim := opt.BlockDim
	if blockDim > dev.Props().MaxThreadsPerBlock {
		blockDim = dev.Props().MaxThreadsPerBlock
	}
	if blockDim > count {
		blockDim = count
	}
	cfg := gpu.LaunchConfig{GridDim: (count + blockDim - 1) / blockDim, BlockDim: blockDim}
	attrs := gpu.KernelAttrs{Name: "bandwidthMainShare", UsesBarrier: false}
	_, err = dev.Launch(attrs, cfg, func(tc *gpu.ThreadCtx) {
		t := tc.GlobalID()
		if t >= count {
			return
		}
		j := start + t
		xs := tc.GlobalSlice(dX, 0, n)
		ys := tc.GlobalSlice(dY, 0, n)
		absRow := tc.GlobalSlice(dAbsD, t*n, n)
		yRow := tc.GlobalSlice(dYM, t*n, n)

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

		sy := compAcc32{plain: opt.Uncompensated}
		syd2 := compAcc32{plain: opt.Uncompensated}
		sd2 := compAcc32{plain: opt.Uncompensated}
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
			base := t*k + jh
			tc.Store(dSumY, base, sy.sum())
			tc.Store(dSumYD2, base, syd2.sum())
			tc.Store(dSumD2, base, sd2.sum())
			tc.Store(dCnt, base, float32(cnt))
		}
		if opt.Uncompensated {
			tc.ChargeOps(int64(6*ptr + 2*k))
		} else {
			tc.ChargeOps(int64(15*ptr + 2*k))
		}
		tc.ChargeGlobalRead(int64(sweepReads) * 4)

		yj := ys[j]
		for jh := 0; jh < k; jh++ {
			h := tc.Const(bwSym, jh)
			base := t*k + jh
			sY := tc.Load(dSumY, base)
			sYD2 := tc.Load(dSumYD2, base)
			sD2 := tc.Load(dSumD2, base)
			c := tc.Load(dCnt, base)
			h2 := h * h
			den := 0.75 * ((c - 1) - sD2/h2)
			var r2 float32
			if den > 0 {
				num := 0.75 * ((sY - yj) - sYD2/h2)
				r := yj - num/den
				r2 = r * r
			}
			tc.SetAccessPattern(gpu.Coalesced)
			tc.Store(dResid, jh*count+t, r2)
			tc.SetAccessPattern(gpu.Uncoalesced)
			tc.ChargeOps(10)
		}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	redDim := reduceDim(opt.ReduceDim, count)
	sumReduce := cuda.SumReduceKahan
	if opt.Uncompensated {
		sumReduce = cuda.SumReduce
	}
	for jh := 0; jh < k; jh++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		if err := sumReduce(dev, dResid, jh*count, count, dCV, jh, redDim); err != nil {
			return nil, 0, 0, err
		}
	}
	sums := make([]float32, k)
	if err := dev.CopyFromDevice(sums, dCV); err != nil {
		return nil, 0, 0, err
	}
	return sums, dev.Clock().Seconds(), dev.MemInfo().Peak, nil
}

// PlanGPUMulti costs the multi-device pipeline: per-device plans run
// concurrently, so the modelled time is the slowest share. Returns the
// plan of the slowest device plus the device count actually used.
func PlanGPUMulti(n, k, devices int, props gpu.Properties) (Plan, int, error) {
	if devices < 1 {
		devices = 1
	}
	if devices > n {
		devices = n
	}
	share := (n + devices - 1) / devices
	worst := Plan{}
	for d := 0; d < devices; d++ {
		start := d * share
		count := share
		if start+count > n {
			count = n - start
		}
		if count <= 0 {
			continue
		}
		p, err := planDeviceShare(n, k, count, props)
		if err != nil {
			return Plan{}, 0, fmt.Errorf("device %d: %w", d, err)
		}
		if p.Seconds > worst.Seconds {
			worst = p
		}
	}
	worst.N, worst.K = n, k
	return worst, devices, nil
}

func planDeviceShare(n, k, count int, props gpu.Properties) (Plan, error) {
	dev, err := gpu.NewDevice(props, gpu.Planning)
	if err != nil {
		return Plan{}, err
	}
	if _, err := dev.UploadConstant("bandwidths", make([]float32, k)); err != nil {
		return Plan{}, err
	}
	sizes := []struct {
		elems int
		label string
	}{
		{n, "x"}, {n, "y"},
		{count * n, "absdiff[share×n]"}, {count * n, "ymatrix[share×n]"},
		{count * k, "sumY"}, {count * k, "sumYd2"}, {count * k, "sumD2"}, {count * k, "count"},
		{k * count, "resid"}, {k, "cv"},
	}
	var bufX, bufY gpu.Buffer
	for i, sz := range sizes {
		b, err := dev.Malloc(sz.elems, sz.label)
		if err != nil {
			return Plan{}, err
		}
		switch i {
		case 0:
			bufX = b
		case 1:
			bufY = b
		}
	}
	host := make([]float32, n)
	if err := dev.CopyToDevice(bufX, host); err != nil {
		return Plan{}, err
	}
	if err := dev.CopyToDevice(bufY, host); err != nil {
		return Plan{}, err
	}
	dev.LaunchPlanned("bandwidthMainShare", mainKernelPlanThreads(count, n, k, props))
	redDim := reduceDim(props.MaxThreadsPerBlock, count)
	for jh := 0; jh < k; jh++ {
		dev.LaunchPlanned("sumReduce", SumReducePlan(count, redDim, props))
	}
	return Plan{
		N: n, K: k,
		Seconds:     dev.Clock().Seconds(),
		Mem:         dev.MemInfo(),
		TimeByLabel: dev.Clock().ByLabel(),
		KernelTally: dev.Stats().KernelTally,
	}, nil
}
