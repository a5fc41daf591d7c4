package conformance

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gpu"
)

// Fault-path cancellation battery: the fleet scheduler holds a pooled
// workspace across its requeue rounds, so a cancellation that lands
// while a faulted device's shards are being requeued is the exact spot
// where a leak would hide. The sweep below walks the tripwire threshold
// across the whole run — from the entry poll, through the first round,
// across the requeue boundary, into the second round and out the far
// side — and checks two contracts at every landing point:
//
//  1. cancelled runs return ctx.Err() with a zero result, completed
//     runs are bit-identical to the healthy baseline (the fault is
//     survivable: one device of three);
//  2. the workspace pool balances: every acquire across the sweep is
//     matched by a release, whichever path the run exited through.
//
// The test must NOT run parallel to other pool users: the pool counters
// are process-global, so the balance assertion needs the package's
// serial test phase. Top-level tests without t.Parallel satisfy that.
func TestFaultPathCancellationReleasesWorkspaces(t *testing.T) {
	d, g := cancelDataset(t)

	healthyFleet, err := gpu.NewSimManager(3, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := core.SelectGPUFleet(context.Background(), d.X, d.Y, g, healthyFleet, core.GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}

	hits0, misses0 := bandwidth.PoolStats()
	releases0 := bandwidth.PoolReleases()

	cancelled, completed := 0, 0
	// Sweep until the run outlives the tripwire a few times in a row —
	// by then every poll site, including the inter-round one the requeue
	// passes through, has been the landing point at least once.
	streak := 0
	for after := 0; after < 4096 && streak < 3; after++ {
		m, err := gpu.NewSimManager(3, gpu.TeslaS10())
		if err != nil {
			t.Fatal(err)
		}
		// Device 1 is already off the bus: round one discovers it via a
		// failing open, requeues its shard, and round two reruns it on a
		// survivor — so the sweep crosses a genuine requeue boundary.
		if err := m.InjectFallOffBus(1); err != nil {
			t.Fatal(err)
		}
		tw := newTripwire(after)
		r, err := core.SelectGPUFleet(tw, d.X, d.Y, g, m, core.GPUOptions{KeepScores: true})
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("threshold %d: error is %v, want context.Canceled", after, err)
			}
			if r.H != 0 || r.CV != 0 || r.Index != 0 || r.Scores != nil {
				t.Fatalf("threshold %d: cancelled run leaked a partial result: %+v", after, r)
			}
			cancelled++
			streak = 0
			continue
		}
		if r.Index != healthy.Index || r.H != healthy.H || r.CV != healthy.CV {
			t.Fatalf("threshold %d: completed run differs from healthy: %+v vs %+v", after, r.Result, healthy.Result)
		}
		if r.Requeues == 0 {
			t.Fatalf("threshold %d: completed run reports no requeues despite the lost device", after)
		}
		completed++
		streak++
	}
	if cancelled == 0 || completed == 0 {
		t.Fatalf("sweep was one-sided: %d cancelled, %d completed — thresholds never crossed the run", cancelled, completed)
	}

	hits1, misses1 := bandwidth.PoolStats()
	releases1 := bandwidth.PoolReleases()
	acquired := (hits1 + misses1) - (hits0 + misses0)
	released := releases1 - releases0
	if acquired != released {
		t.Fatalf("workspace pool out of balance across the sweep: %d acquires vs %d releases", acquired, released)
	}
	if acquired == 0 {
		t.Fatal("sweep never touched the workspace pool — the balance check checked nothing")
	}
}
