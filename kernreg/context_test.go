package kernreg

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// Public-API contract of SelectBandwidthContext: cancellation surfaces
// as the context error with a zero Selection for every method, a nil
// context behaves as Background, and an unused live context leaves the
// selection bit-identical to SelectBandwidth.

func ctxSample(n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = float64(i) / float64(n)
		y[i] = math.Sin(10 * x[i])
	}
	return x, y
}

// ctxMethods are the methods cancellation must reach; estimator and
// criterion variants ride the same dispatch.
var ctxMethods = []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodNaive, MethodNumerical, MethodGPU, MethodGPUTiled, MethodWindow}

func TestSelectBandwidthContextPreCancelled(t *testing.T) {
	x, y := ctxSample(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range ctxMethods {
		sel, err := SelectBandwidthContext(ctx, x, y, WithMethod(m))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("method %v: err = %v, want context.Canceled", m, err)
		}
		if sel.Bandwidth != 0 || sel.CV != 0 || sel.Index != 0 || sel.Grid != nil || sel.Scores != nil {
			t.Errorf("method %v: cancelled selection leaked a partial result: %+v", m, sel)
		}
	}
}

func TestSelectBandwidthContextExpiredDeadline(t *testing.T) {
	x, y := ctxSample(64)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	for _, m := range ctxMethods {
		if _, err := SelectBandwidthContext(ctx, x, y, WithMethod(m)); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("method %v: err = %v, want context.DeadlineExceeded", m, err)
		}
	}
	// Estimator/criterion branches share the dispatch but have their own
	// entry points.
	if _, err := SelectBandwidthContext(ctx, x, y, WithEstimator(LocalLinear)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("local-linear: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := SelectBandwidthContext(ctx, x, y, WithCriterion(CriterionAICc)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("aicc: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSelectBandwidthContextNilIsBackground(t *testing.T) {
	x, y := ctxSample(64)
	//lint:ignore SA1012 nil ctx is an explicit documented case here
	got, err := SelectBandwidthContext(nil, x, y) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	want, err := SelectBandwidth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth || got.CV != want.CV || got.Index != want.Index {
		t.Fatalf("nil-ctx selection %+v differs from SelectBandwidth %+v", got, want)
	}
}

func TestSelectBandwidthContextLiveCtxBitIdentical(t *testing.T) {
	x, y := ctxSample(128)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, m := range ctxMethods {
		want, werr := SelectBandwidth(x, y, WithMethod(m), KeepScores())
		got, gerr := SelectBandwidthContext(ctx, x, y, WithMethod(m), KeepScores())
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("method %v: err mismatch %v vs %v", m, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got.Bandwidth != want.Bandwidth || got.CV != want.CV || got.Index != want.Index {
			t.Errorf("method %v: live-ctx selection differs: %+v vs %+v", m, got, want)
		}
		for i := range want.Scores {
			// NaN scores (degenerate leave-one-out windows) compare by
			// bit pattern, not ==.
			if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
				t.Errorf("method %v: score[%d] %v vs %v", m, i, got.Scores[i], want.Scores[i])
			}
		}
	}
}

// TestSelectBandwidthContextMidFlight cancels a context from a watcher
// goroutine while a deliberately slow naive search runs, and bounds how
// long the search keeps computing after that: observation-granularity
// polling must notice within seconds, not run the full search.
func TestSelectBandwidthContextMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("slow search not worth running under -short")
	}
	x, y := ctxSample(4000)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sel, err := SelectBandwidthContext(ctx, x, y, WithMethod(MethodNaive), GridSize(256))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if sel.Bandwidth != 0 || sel.CV != 0 || sel.Grid != nil || sel.Scores != nil {
		t.Fatalf("cancelled selection leaked a partial result: %+v", sel)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled search still ran for %v", elapsed)
	}
}
