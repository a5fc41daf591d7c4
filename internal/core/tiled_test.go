package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/gpu"
	"repro/internal/mathx"
)

func TestTiledMatchesUntiled(t *testing.T) {
	// The tiled pipeline must produce byte-identical selections to the
	// untiled pipeline: same arithmetic per observation, different
	// scratch reuse. Chunk sizes that divide n, that don't, and C = 1.
	d, g := paperSetup(t, 257, 25, 5)
	base, _, err := SelectGPU(context.Background(), d.X, d.Y, g, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64, 257, 1000} {
		res, _, used, err := SelectGPUTiled(context.Background(), d.X, d.Y, g, TiledOptions{ChunkSize: chunk, KeepScores: true})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if used > 257 {
			t.Errorf("chunk clamped wrong: %d", used)
		}
		if res.Index != base.Index || res.H != base.H {
			t.Errorf("chunk %d: selection (%d, %v) vs untiled (%d, %v)", chunk, res.Index, res.H, base.Index, base.H)
		}
		for j := range base.Scores {
			if res.Scores[j] != base.Scores[j] {
				t.Errorf("chunk %d h#%d: score %v vs %v (must be bit-identical)", chunk, j, res.Scores[j], base.Scores[j])
				break
			}
		}
	}
}

func TestTiledAutoChunk(t *testing.T) {
	props := gpu.TeslaS10()
	c, err := autoChunk(1000, 50, props)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1000 { // everything fits: chunk = n
		t.Errorf("small-n auto chunk = %d, want n", c)
	}
	// At n = 100,000 the scratch budget allows roughly
	// (4 GB − fixed) / (2·n·4) ≈ 4.7k rows.
	c, err = autoChunk(100000, 50, props)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1000 || c > 100000 {
		t.Errorf("large-n auto chunk = %d", c)
	}
	if int64(2*c*100000*4) > props.GlobalMemBytes {
		t.Error("auto chunk scratch exceeds device memory")
	}
}

func TestTiledBreaksTheMemoryWall(t *testing.T) {
	// The paper's future-work claim: without the n×n matrices the
	// pipeline runs far beyond n = 20,000. The untiled plan OOMs at
	// 25,000; the tiled plan must fit 100,000.
	props := gpu.TeslaS10()
	if _, err := PlanGPU(25000, 50, props); err == nil {
		t.Fatal("untiled plan should OOM at 25,000 (sanity)")
	}
	plan, chunk, err := PlanGPUTiled(100000, 50, 0, props)
	if err != nil {
		t.Fatalf("tiled plan at n=100,000: %v", err)
	}
	if chunk <= 0 || chunk >= 100000 {
		t.Errorf("chunk = %d", chunk)
	}
	if plan.Mem.Peak > props.GlobalMemBytes {
		t.Error("tiled plan exceeds device memory")
	}
	if plan.Seconds <= 0 {
		t.Error("tiled plan has no modelled time")
	}
	maxN := MaxFeasibleNTiled(50, props, 1<<20)
	if maxN < 200000 {
		t.Errorf("tiled feasible n = %d, expected well beyond 200k", maxN)
	}
	t.Logf("tiled pipeline: n=100,000 modelled %.1fs with chunk %d; max feasible n = %d", plan.Seconds, chunk, maxN)
}

func TestTiledPlanMatchesUntiledWorkAtSameSize(t *testing.T) {
	// At a size both pipelines fit, total modelled work should be nearly
	// equal (the tile adds only launch overheads).
	props := gpu.TeslaS10()
	un, err := PlanGPU(10000, 50, props)
	if err != nil {
		t.Fatal(err)
	}
	ti, chunk, err := PlanGPUTiled(10000, 50, 2000, props)
	if err != nil {
		t.Fatal(err)
	}
	if chunk != 2000 {
		t.Errorf("explicit chunk not honoured: %d", chunk)
	}
	rel := math.Abs(ti.Seconds-un.Seconds) / un.Seconds
	if rel > 0.05 {
		t.Errorf("tiled %.3fs vs untiled %.3fs (%.1f%% apart)", ti.Seconds, un.Seconds, rel*100)
	}
	// Memory footprint must be far smaller.
	if ti.Mem.Peak >= un.Mem.Peak/2 {
		t.Errorf("tiled peak %d not much below untiled %d", ti.Mem.Peak, un.Mem.Peak)
	}
}

func TestTiledFunctionalTallyMatchesPlan(t *testing.T) {
	d, g := paperSetup(t, 300, 20, 9)
	_, rep, chunk, err := SelectGPUTiled(context.Background(), d.X, d.Y, g, TiledOptions{ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if chunk != 100 {
		t.Fatalf("chunk = %d", chunk)
	}
	// Sum of the three chunk plans.
	var want gpu.Tally
	for start := 0; start < 300; start += 100 {
		want.Add(mainKernelPlanThreads(100, 300, 20, gpu.TeslaS10()))
	}
	got := rep.MainTally
	if got.ThreadOps == 0 {
		t.Fatal("no tally recorded")
	}
	rel := math.Abs(float64(want.ThreadOps)-float64(got.ThreadOps)) / float64(got.ThreadOps)
	if rel > 0.25 {
		t.Errorf("plan ThreadOps %d vs measured %d", want.ThreadOps, got.ThreadOps)
	}
}

func TestTiledValidation(t *testing.T) {
	d, g := paperSetup(t, 50, 5, 1)
	if _, _, _, err := SelectGPUTiled(context.Background(), d.X[:1], d.Y[:1], g, TiledOptions{}); err == nil {
		t.Error("single observation should fail")
	}
	// Device too small for even the fixed allocations.
	tiny := gpu.TeslaS10()
	tiny.GlobalMemBytes = 1 << 10
	if _, err := autoChunk(1000, 50, tiny); err == nil {
		t.Error("tiny device should fail autoChunk")
	}
	if _, _, err := PlanGPUTiled(1000, 50, 0, tiny); err == nil {
		t.Error("tiny device should fail the tiled plan")
	}
}

func TestTiledScoresVsHost(t *testing.T) {
	d, g := paperSetup(t, 120, 15, 3)
	seq, err := SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := SelectGPUTiled(context.Background(), d.X, d.Y, g, TiledOptions{ChunkSize: 33, KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != seq.Index {
		t.Errorf("tiled %d vs sequential %d", res.Index, seq.Index)
	}
	for j := range g.H {
		if mathx.RelDiff(res.Scores[j], seq.Scores[j]) > 1e-4 {
			t.Errorf("h#%d: %v vs %v", j, res.Scores[j], seq.Scores[j])
			break
		}
	}
}
