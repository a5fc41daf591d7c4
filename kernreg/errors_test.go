package kernreg

import (
	"math"
	"strings"
	"testing"
)

// Error-path coverage for the public API: every malformed input must be
// rejected with a descriptive error before any selector runs, for every
// method, so the conformance fuzzer can treat "error or valid selection"
// as the full behaviour space.

func TestParseMethodRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "gradient", "SORTED", "sorted ", "gpu2", "naïve"} {
		if _, err := ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) accepted an unknown method", bad)
		} else if !strings.Contains(err.Error(), "unknown method") {
			t.Errorf("ParseMethod(%q) error %q lacks context", bad, err)
		}
	}
}

func TestParseMethodRoundTrips(t *testing.T) {
	for _, m := range []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodNaive, MethodNumerical, MethodGPU, MethodGPUTiled, MethodTwoPointer, MethodTwoPointerParallel, MethodTwoPointerF32, MethodBagged, MethodWindow} {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseMethod(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if s := Method(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown method String() = %q, want the numeric fallback", s)
	}
}

// allMethods enumerates every search algorithm for the input-rejection
// sweep.
var allMethods = []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodNaive, MethodNumerical, MethodGPU, MethodGPUTiled, MethodTwoPointer, MethodTwoPointerParallel, MethodTwoPointerF32, MethodBagged, MethodWindow}

func TestSelectBandwidthRejectsTooFewObservations(t *testing.T) {
	cases := map[string][2][]float64{
		"empty":     {{}, {}},
		"single":    {{0.5}, {1}},
		"nil-both":  {nil, nil},
		"nil-y":     {{0.1, 0.2}, nil},
		"len-skew":  {{0.1, 0.2, 0.3}, {1, 2}},
		"len-skew2": {{0.1, 0.2}, {1, 2, 3}},
	}
	for name, c := range cases {
		for _, m := range allMethods {
			if _, err := SelectBandwidth(c[0], c[1], WithMethod(m)); err == nil {
				t.Errorf("%s with method %v: accepted invalid sample", name, m)
			}
		}
	}
}

func TestSelectBandwidthRejectsNonFinite(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7, 0.9}
	y := []float64{1, 2, 3, 4}
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, bad := range poison {
		for _, m := range allMethods {
			px := append([]float64(nil), x...)
			px[2] = bad
			if _, err := SelectBandwidth(px, y, WithMethod(m)); err == nil {
				t.Errorf("method %v accepted X containing %g", m, bad)
			}
			py := append([]float64(nil), y...)
			py[1] = bad
			if _, err := SelectBandwidth(x, py, WithMethod(m)); err == nil {
				t.Errorf("method %v accepted Y containing %g", m, bad)
			}
		}
	}
}

func TestSelectBandwidthRejectsBadOptions(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7, 0.9}
	y := []float64{1, 2, 3, 4}
	bad := []Option{
		GridSize(0),
		GridSize(-3),
		GridRange(0, 1),
		GridRange(-1, 1),
		GridRange(2, 1),
		GridRange(1, 1),
		Restarts(0),
		WithKernel("box"),
	}
	for i, opt := range bad {
		if _, err := SelectBandwidth(x, y, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

func TestSelectBandwidthRejectsZeroDomain(t *testing.T) {
	// All-identical X has no derivable default grid.
	x := []float64{0.5, 0.5, 0.5, 0.5}
	y := []float64{1, 2, 3, 4}
	if _, err := SelectBandwidth(x, y); err == nil {
		t.Error("accepted zero-domain X with the default grid")
	}
	// An explicit range sidesteps the default-grid derivation and must
	// still work (every observation is in range at any h).
	if _, err := SelectBandwidth(x, y, GridRange(0.5, 2)); err != nil {
		t.Errorf("explicit range on zero-domain X: %v", err)
	}
}

func TestSelectBandwidthMethodKernelMismatch(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7, 0.9}
	y := []float64{1, 2, 3, 4}
	// The gaussian kernel has unbounded support: the sorted methods and
	// the device pipelines must reject it, the naive method accepts it.
	for _, m := range []Method{MethodSorted, MethodSortedParallel, MethodSortedF32, MethodGPU, MethodGPUTiled, MethodWindow} {
		if _, err := SelectBandwidth(x, y, WithMethod(m), WithKernel("gaussian")); err == nil {
			t.Errorf("method %v accepted the gaussian kernel", m)
		}
	}
	if _, err := SelectBandwidth(x, y, WithMethod(MethodNaive), WithKernel("gaussian")); err != nil {
		t.Errorf("naive with gaussian: %v", err)
	}
}

func TestBaggedOptionErrors(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7, 0.9}
	y := []float64{1, 2, 3, 4}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"zero bags", []Option{WithMethod(MethodBagged), Bags(0)}, "bags must be at least 1, got 0"},
		{"negative bags", []Option{WithMethod(MethodBagged), Bags(-2)}, "bags must be at least 1, got -2"},
		{"bag size one", []Option{WithMethod(MethodBagged), BagSize(1)}, "bag size must be at least 2, got 1"},
		{"bag size zero", []Option{WithMethod(MethodBagged), BagSize(0)}, "bag size must be at least 2, got 0"},
		{"bag size over n", []Option{WithMethod(MethodBagged), BagSize(5)}, "bag size 5 exceeds the sample size 4"},
		{"negative seed", []Option{WithMethod(MethodBagged), Seed(-1)}, "seed must be non-negative, got -1"},
		{"bags on sorted", []Option{WithMethod(MethodSorted), Bags(4)}, "apply to MethodBagged only"},
		{"bag size on default method", []Option{BagSize(3)}, "apply to MethodBagged only"},
		{"seed on naive", []Option{WithMethod(MethodNaive), Seed(7)}, "apply to MethodBagged only"},
		{"gaussian kernel", []Option{WithMethod(MethodBagged), WithKernel("gaussian")}, "kernel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SelectBandwidth(x, y, tc.opts...)
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}
	// Valid bag parameters on the bagged method select successfully.
	if _, err := SelectBandwidth(x, y, WithMethod(MethodBagged), Bags(3), BagSize(3), Seed(5)); err != nil {
		t.Fatalf("valid bagged options: %v", err)
	}
}

func TestWorkersRejectsNegative(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7, 0.9}
	y := []float64{1, 2, 3, 4}
	for _, n := range []int{-1, -8, math.MinInt} {
		_, err := SelectBandwidth(x, y, WithMethod(MethodSortedParallel), Workers(n))
		if err == nil {
			t.Errorf("Workers(%d) accepted a negative worker count", n)
			continue
		}
		if !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("Workers(%d) error %q lacks context", n, err)
		}
	}
	// 0 (auto) and explicit positive counts remain valid.
	for _, n := range []int{0, 1, 2, 8} {
		if _, err := SelectBandwidth(x, y, WithMethod(MethodSortedParallel), Workers(n)); err != nil {
			t.Errorf("Workers(%d): %v", n, err)
		}
	}
}
