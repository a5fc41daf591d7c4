package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
	"repro/internal/mathx"
)

// selectFleet runs SelectGPUFleet on a healthy simulated fleet of the
// given size.
func selectFleet(t *testing.T, x, y []float64, g bandwidth.Grid, devices int, opt GPUOptions) (MultiGPUResult, error) {
	t.Helper()
	m, err := gpu.NewSimManager(devices, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	return SelectGPUFleet(context.Background(), x, y, g, m, opt)
}

func TestMultiGPUMatchesSingle(t *testing.T) {
	d, g := paperSetup(t, 301, 25, 11)
	single, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{1, 2, 3, 5} {
		multi, err := selectFleet(t, d.X, d.Y, g, devices, GPUOptions{KeepScores: true})
		if err != nil {
			t.Fatalf("devices=%d: %v", devices, err)
		}
		if multi.Devices != devices {
			t.Errorf("devices recorded = %d", multi.Devices)
		}
		if multi.Index != single.Index {
			t.Errorf("devices=%d: index %d vs single %d", devices, multi.Index, single.Index)
		}
		// Host float64 combine vs device float32 reduction: tolerance.
		if mathx.RelDiff(multi.CV, single.CV) > 1e-4 {
			t.Errorf("devices=%d: CV %v vs %v", devices, multi.CV, single.CV)
		}
		if len(multi.DeviceSeconds) != devices || multi.ModelSeconds <= 0 {
			t.Errorf("devices=%d: timing bookkeeping %+v", devices, multi.DeviceSeconds)
		}
	}
}

func TestMultiGPUMatchesHost(t *testing.T) {
	d, g := paperSetup(t, 150, 20, 3)
	seq, err := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := selectFleet(t, d.X, d.Y, g, 2, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Index != seq.Index {
		t.Errorf("multi-GPU %d vs sequential %d", multi.Index, seq.Index)
	}
	for j := range g.H {
		if mathx.RelDiff(multi.Scores[j], seq.Scores[j]) > 1e-4 {
			t.Errorf("h#%d: %v vs %v", j, multi.Scores[j], seq.Scores[j])
			break
		}
	}
}

// TestPlanMultiMatchesFleet checks PlanGPUMulti against the functional
// fleet it costs, as TestPlanModelledTimeTracksFunctional does for
// Program 4: on a healthy two-device fleet the planned share has the
// same memory peak as the busiest device and modelled seconds within
// 30% of the fleet's.
func TestPlanMultiMatchesFleet(t *testing.T) {
	for _, n := range []int{500, 301} {
		d, g := paperSetup(t, n, 50, 8)
		fleet, err := selectFleet(t, d.X, d.Y, g, 2, GPUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan, used, err := PlanGPUMulti(n, 50, 2, gpu.TeslaS10())
		if err != nil {
			t.Fatal(err)
		}
		if used != 2 {
			t.Fatalf("n=%d: planned %d devices, want 2", n, used)
		}
		peak := max(fleet.MemPeaks[0], fleet.MemPeaks[1])
		if plan.Mem.Peak != peak {
			t.Errorf("n=%d: planned memory peak %d bytes, fleet peak %d", n, plan.Mem.Peak, peak)
		}
		rel := math.Abs(plan.Seconds-fleet.ModelSeconds) / fleet.ModelSeconds
		if rel > 0.30 {
			t.Errorf("n=%d: plan %.4fs vs fleet-model %.4fs (%.0f%% apart)", n, plan.Seconds, fleet.ModelSeconds, rel*100)
		}
	}
}

func TestMultiGPUNearlyHalvesModelledTime(t *testing.T) {
	// Two concurrent devices each process half the observations: the
	// modelled wall time should approach half the single-device time at
	// sizes where the main kernel dominates (plus the per-device fixed
	// overheads, which do not halve).
	props := gpu.TeslaS10()
	single, err := PlanGPU(10000, 50, props)
	if err != nil {
		t.Fatal(err)
	}
	dual, used, err := PlanGPUMulti(10000, 50, 2, props)
	if err != nil {
		t.Fatal(err)
	}
	if used != 2 {
		t.Fatalf("devices used = %d", used)
	}
	ratio := dual.Seconds / single.Seconds
	if ratio > 0.65 || ratio < 0.40 {
		t.Errorf("dual/single = %.3f (%.3fs vs %.3fs), want ≈ 0.5 + overheads", ratio, dual.Seconds, single.Seconds)
	}
}

func TestMultiGPUExtendsMemoryWall(t *testing.T) {
	// One 4 GB device OOMs at n = 25,000; two devices hold (n/2)×n
	// scratch each, which fits well past 30,000.
	props := gpu.TeslaS10()
	if _, err := PlanGPU(28000, 50, props); err == nil {
		t.Fatal("single device should OOM at 28,000 (sanity)")
	}
	dual, _, err := PlanGPUMulti(28000, 50, 2, props)
	if err != nil {
		t.Fatalf("two devices should fit n=28,000: %v", err)
	}
	if dual.Mem.Peak > props.GlobalMemBytes {
		t.Error("per-device peak exceeds capacity")
	}
	// But not indefinitely: (n/2)·n still grows quadratically.
	if _, _, err := PlanGPUMulti(80000, 50, 2, props); err == nil {
		t.Error("n=80,000 should still OOM on two devices")
	}
}

func TestMultiGPUDegenerateInputs(t *testing.T) {
	d, g := paperSetup(t, 30, 5, 1)
	// A fleet larger than n runs one shard per observation.
	multi, err := selectFleet(t, d.X, d.Y, g, 50, GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Devices != len(d.X) {
		t.Errorf("50 devices on n=30: %d shards, want 30", multi.Devices)
	}
	seq, _ := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if multi.Index != seq.Index {
		t.Errorf("50 devices: wrong selection")
	}
	// The planner clamps its device count the same way; devices <= 0
	// plans one device.
	for devices, want := range map[int]int{0: 1, -3: 1, 50: 30} {
		if _, used, err := PlanGPUMulti(30, 5, devices, gpu.TeslaS10()); err != nil || used != want {
			t.Errorf("PlanGPUMulti devices=%d: used %d (err %v), want %d", devices, used, err, want)
		}
	}
	if _, err := selectFleet(t, d.X[:1], d.Y[:1], g, 2, GPUOptions{}); err == nil {
		t.Error("single observation should fail")
	}
}
