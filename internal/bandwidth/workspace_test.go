package bandwidth

import (
	"context"
	"testing"

	"repro/internal/kernel"
)

// TestWorkspaceNeighbourBuffersLazy pins the lazy neighbour buffers: a
// freshly allocated workspace that only serves a window sweep never
// allocates absd/yv/delta, and a two-pointer sweep allocates them on
// first use.
func TestWorkspaceNeighbourBuffersLazy(t *testing.T) {
	const n, k = 1000, 20
	x, y := tpTestSample(n, 8)
	g, err := DefaultGrid(x, k)
	if err != nil {
		t.Fatal(err)
	}
	// Empty this capacity class so the window sweep below takes a pool
	// miss: acquire until the pool hands out a fresh workspace, holding
	// every pooled one until the test ends.
	var held []*Workspace
	defer func() {
		for _, ws := range held {
			ws.Release()
		}
	}()
	for {
		_, m0 := PoolStats()
		ws := AcquireWorkspace(n, k)
		held = append(held, ws)
		if _, m1 := PoolStats(); m1 != m0 {
			break
		}
	}

	if _, err := WindowGridSearch(context.Background(), x, y, g, kernel.Epanechnikov); err != nil {
		t.Fatal(err)
	}
	// The class now holds only the window sweep's workspace (or nothing,
	// if the pool dropped it, in which case this acquire is fresh too).
	ws := AcquireWorkspace(n, k)
	defer ws.Release()
	if ws.absd != nil || ws.yv != nil || ws.delta != nil {
		t.Fatalf("window-only workspace holds neighbour buffers: cap absd=%d yv=%d delta=%d",
			cap(ws.absd), cap(ws.yv), cap(ws.delta))
	}

	if _, err := TwoPointerGridSearchInto(context.Background(), x, y, g, kernel.Epanechnikov, Compensated, ws); err != nil {
		t.Fatal(err)
	}
	if cap(ws.absd) != cap(ws.xs) || cap(ws.yv) != cap(ws.xs) {
		t.Errorf("two-pointer sweep left neighbour buffers at cap %d/%d, want the class capacity %d",
			cap(ws.absd), cap(ws.yv), cap(ws.xs))
	}
	if ws.delta != nil {
		t.Errorf("local-constant sweep allocated the local-linear delta buffer (cap %d)", cap(ws.delta))
	}
}
