package core

import (
	"context"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
)

func TestModernProfileMovesTheWalls(t *testing.T) {
	modern := gpu.ModernDataCenter()
	if err := modern.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's 4 GB wall at n ≈ 23k becomes ≈ 100k on 80 GB
	// (two n×n float32 matrices: 8n² bytes ≤ 80 GB → n ≈ 103k).
	wall := MaxFeasibleN(50, modern, 1<<18)
	if wall < 95000 || wall > 110000 {
		t.Errorf("modern wall = %d, want ≈ 103,000", wall)
	}
	// Modelled time at the paper's flagship size collapses by orders of
	// magnitude versus the Tesla S10.
	old, err := PlanGPU(20000, 50, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	now, err := PlanGPU(20000, 50, modern)
	if err != nil {
		t.Fatal(err)
	}
	speedup := old.Seconds / now.Seconds
	if speedup < 10 {
		t.Errorf("modern speedup = %.1fx (old %.2fs vs modern %.2fs), expected ≫ 10x",
			speedup, old.Seconds, now.Seconds)
	}
	t.Logf("modern profile: wall n=%d, n=20k modelled %.3fs (%.0fx vs Tesla S10)", wall, now.Seconds, speedup)
	// The constant-cache cap relaxes: 2,049 bandwidths now fit.
	if _, err := PlanGPU(4096, 2049, modern); err != nil {
		t.Errorf("modern const cache should accept k=2049: %v", err)
	}
	// And a functional run still agrees with the host algorithm.
	d, g := paperSetup(t, 200, 20, 17)
	res, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{Props: modern})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if res.Index != seq.Index {
		t.Errorf("modern-profile selection %d vs host %d", res.Index, seq.Index)
	}
}
