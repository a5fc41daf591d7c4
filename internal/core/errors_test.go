package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/gpu"
)

// Error-path coverage for the tiled pipeline's memory accounting: the
// conformance harness only exercises the happy path, so the capacity
// cliffs need direct tests.

func TestAutoChunkFixedAllocationsExceedMemory(t *testing.T) {
	props := gpu.TeslaS10()
	props.GlobalMemBytes = 1 << 12 // 4 KB: the fixed n×k accumulators alone cannot fit
	if _, err := autoChunk(1000, 50, props); err == nil {
		t.Fatal("autoChunk succeeded with 4 KB of device memory")
	} else if !strings.Contains(err.Error(), "exceed device memory") {
		t.Errorf("error %q does not name the fixed-allocation overflow", err)
	}
}

func TestAutoChunkNoRoomForOneRow(t *testing.T) {
	// Leave a budget that is positive but smaller than one 2×n float32
	// scratch row, so C = 0: fixed = (n+n+4nk+kn+k+2)·4 bytes, one row
	// needs 2·n·4 bytes.
	n, k := 1000, 10
	fixed := int64(n+n+4*n*k+k*n+k+2) * 4
	props := gpu.TeslaS10()
	props.GlobalMemBytes = fixed + 4000 // post-headroom budget 3800 < 8000 per row
	if _, err := autoChunk(n, k, props); err == nil {
		t.Fatal("autoChunk found room where no scratch row fits")
	} else if !strings.Contains(err.Error(), "no room") {
		t.Errorf("error %q does not name the scratch-row shortfall", err)
	}
}

func TestAutoChunkCapsAtN(t *testing.T) {
	// On the 4 GB profile a small problem's scratch fits wholesale; the
	// chunk must cap at n, not the memory-derived maximum.
	c, err := autoChunk(100, 10, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	if c != 100 {
		t.Errorf("chunk = %d, want n = 100", c)
	}
}

func TestSelectGPUTiledPropagatesOOM(t *testing.T) {
	d := data.GeneratePaper(200, 5)
	g, err := bandwidth.DefaultGrid(d.X, 10)
	if err != nil {
		t.Fatal(err)
	}
	props := gpu.TeslaS10()
	props.GlobalMemBytes = 1 << 12
	_, _, _, err = SelectGPUTiled(context.Background(), d.X, d.Y, g, TiledOptions{Props: props})
	if err == nil {
		t.Fatal("tiled pipeline ran with 4 KB of device memory")
	}
}

func TestSelectGPUTiledExplicitChunkTooBigStillRuns(t *testing.T) {
	// A user-supplied chunk larger than n is clamped, not rejected.
	d := data.GeneratePaper(50, 6)
	g, err := bandwidth.DefaultGrid(d.X, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, _, chunk, err := SelectGPUTiled(context.Background(), d.X, d.Y, g, TiledOptions{ChunkSize: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if chunk != 50 {
		t.Errorf("chunk = %d, want clamp to n = 50", chunk)
	}
	if r.Index < 0 || r.Index >= g.Len() {
		t.Errorf("index %d outside grid", r.Index)
	}
}

func TestCoreSelectorsRejectInvalidSamples(t *testing.T) {
	g := bandwidth.Grid{H: []float64{0.1, 0.2}}
	cases := map[string][2][]float64{
		"empty":    {{}, {}},
		"single":   {{1}, {2}},
		"len-skew": {{1, 2, 3}, {1, 2}},
	}
	for name, c := range cases {
		if _, err := SortedSequential(context.Background(), c[0], c[1], g, bandwidth.Compensated); err == nil {
			t.Errorf("SortedSequential accepted %s", name)
		}
		if _, _, err := SelectGPU(context.Background(), c[0], c[1], g, GPUOptions{}); err == nil {
			t.Errorf("SelectGPU accepted %s", name)
		}
		if _, _, _, err := SelectGPUTiled(context.Background(), c[0], c[1], g, TiledOptions{}); err == nil {
			t.Errorf("SelectGPUTiled accepted %s", name)
		}
		if _, err := selectFleet(t, c[0], c[1], g, 2, GPUOptions{}); err == nil {
			t.Errorf("SelectGPUFleet accepted %s", name)
		}
	}
	// Invalid grids are rejected too.
	x, y := []float64{0.1, 0.5, 0.9}, []float64{1, 2, 3}
	for name, bad := range map[string]bandwidth.Grid{
		"empty-grid":      {},
		"non-positive":    {H: []float64{0, 0.5}},
		"descending":      {H: []float64{0.5, 0.2}},
		"duplicate-point": {H: []float64{0.5, 0.5}},
	} {
		if _, err := SortedSequential(context.Background(), x, y, bad, bandwidth.Compensated); err == nil {
			t.Errorf("SortedSequential accepted %s", name)
		}
		if _, _, err := SelectGPU(context.Background(), x, y, bad, GPUOptions{}); err == nil {
			t.Errorf("SelectGPU accepted %s", name)
		}
	}
}
