package bandwidth

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mathx"
)

// windowTol is the Exact-class tolerance of the conformance policy
// (exactCVTol): the window sweep computes the naive objective in
// float64 and may differ from it only by re-association noise.
const windowTol = 1e-9

var windowKernels = []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular}

// checkWindowExact applies the Exact-class contract to a window result:
// every score agrees with the naive oracle to windowTol, and the
// arg-min matches unless the oracle's own scores tie to that tolerance.
func checkWindowExact(t *testing.T, label string, got, oracle Result) {
	t.Helper()
	for j := range oracle.Scores {
		a, b := oracle.Scores[j], got.Scores[j]
		if mathx.IsFinite(a) != mathx.IsFinite(b) {
			t.Fatalf("%s: score %d finiteness differs: naive %g vs window %g", label, j, a, b)
		}
		if mathx.IsFinite(a) && mathx.RelDiff(a, b) > windowTol {
			t.Fatalf("%s: score %d: naive %g vs window %g, reldiff %g > %g", label, j, a, b, mathx.RelDiff(a, b), windowTol)
		}
	}
	if got.Index != oracle.Index {
		a, b := oracle.Scores[oracle.Index], oracle.Scores[got.Index]
		if mathx.IsFinite(a) && mathx.IsFinite(b) && mathx.RelDiff(a, b) > windowTol {
			t.Fatalf("%s: arg-min %d differs from naive %d and is no tie (%g vs %g)", label, got.Index, oracle.Index, b, a)
		}
	}
}

// windowCase is one sample and grid for the window differential tests.
type windowCase struct {
	name string
	x, y []float64
	g    Grid
}

// windowAdversarial returns the sample shapes the window sums are most
// likely to get wrong: a huge offset on X (the global-anchor
// expansion would cancel every digit), spread/h beyond 10⁶, exact
// boundary ties on an integer lattice, and heavy duplication.
func windowAdversarial() []windowCase {
	rng := rand.New(rand.NewSource(12))
	var out []windowCase
	grid := func(x []float64, k int) Grid {
		g, err := DefaultGrid(x, k)
		if err != nil {
			panic(err)
		}
		return g
	}
	for _, off := range []float64{1e3, 1e8} {
		x := make([]float64, 200)
		y := make([]float64, 200)
		for i := range x {
			u := rng.Float64()
			x[i] = off + u
			y[i] = math.Sin(6*u) + 0.1*rng.NormFloat64()
		}
		out = append(out, windowCase{"offset", x, y, grid(x, 30)})
	}
	{
		// A cluster 10⁻⁶ wide and two remote points: spread/h ≥ 10⁶ at
		// every grid bandwidth, with well-populated windows.
		var x, y []float64
		for i := 0; i < 150; i++ {
			u := rng.Float64()
			x = append(x, 1e-6*u)
			y = append(y, math.Cos(5*u)+0.1*rng.NormFloat64())
		}
		x = append(x, -1, 1)
		y = append(y, 3, -3)
		g, err := NewGrid(2e-8, 1e-6, 20)
		if err != nil {
			panic(err)
		}
		out = append(out, windowCase{"spread-over-h", x, y, g})
	}
	{
		// Integer lattice, integer grid: every spacing lands exactly on
		// a grid bandwidth.
		x := make([]float64, 120)
		y := make([]float64, 120)
		for i := range x {
			x[i] = float64(i % 40)
			y[i] = math.Sin(float64(i)) + 0.2*rng.NormFloat64()
		}
		g, err := NewGrid(1, 12, 12)
		if err != nil {
			panic(err)
		}
		out = append(out, windowCase{"lattice-ties", x, y, g})
	}
	{
		x := make([]float64, 160)
		y := make([]float64, 160)
		for i := range x {
			x[i] = float64(i%5) * 0.3
			y[i] = x[i]*x[i] + 0.3*rng.NormFloat64()
		}
		out = append(out, windowCase{"duplicates", x, y, grid(x, 16)})
	}
	return out
}

func TestWindowMatchesNaive(t *testing.T) {
	ctx := context.Background()
	var cases []windowCase
	for _, n := range []int{2, 3, 17, 257} {
		x, y := tpTestSample(n, int64(n))
		g, err := DefaultGrid(x, 25)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, windowCase{"tp-sample", x, y, g})
	}
	cases = append(cases, windowAdversarial()...)
	for _, c := range cases {
		for _, k := range windowKernels {
			oracle, err := NaiveGridSearch(ctx, c.x, c.y, c.g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := WindowGridSearch(ctx, c.x, c.y, c.g, k)
			if err != nil {
				t.Fatal(err)
			}
			checkWindowExact(t, c.name+"/"+k.String(), got, oracle)
		}
	}
}

// TestWindowStrictBoundary pins the boundary semantics on a sample
// whose only neighbour sits exactly at |d| = h: Epanechnikov and
// Triangular give it weight zero (no neighbour, so the observation is
// masked and CV is exactly 0), while Uniform counts it (|d| ≤ h).
func TestWindowStrictBoundary(t *testing.T) {
	x := []float64{0, 1}
	y := []float64{1, 3}
	g := Grid{H: []float64{1}}
	for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Triangular} {
		r, err := WindowGridSearch(context.Background(), x, y, g, k)
		if err != nil {
			t.Fatal(err)
		}
		if r.CV != 0 {
			t.Errorf("%v: CV = %g, want exactly 0 (the boundary neighbour has zero weight)", k, r.CV)
		}
	}
	r, err := WindowGridSearch(context.Background(), x, y, g, kernel.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if r.CV != 4 {
		t.Errorf("uniform: CV = %g, want 4 (each point predicts the other)", r.CV)
	}
}

// TestWindowShardIndependent pins the property the coordinator relies
// on: every bandwidth is an independent pass, so any sub-grid reproduces
// the full grid's scores bit for bit.
func TestWindowShardIndependent(t *testing.T) {
	x, y := tpTestSample(300, 9)
	g, err := DefaultGrid(x, 37)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range windowKernels {
		full, err := WindowGridSearch(context.Background(), x, y, g, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range [][2]int{{0, 1}, {5, 17}, {36, 37}} {
			sub, err := WindowGridSearch(context.Background(), x, y, Grid{H: g.H[span[0]:span[1]]}, k)
			if err != nil {
				t.Fatal(err)
			}
			for j, s := range sub.Scores {
				if math.Float64bits(s) != math.Float64bits(full.Scores[span[0]+j]) {
					t.Fatalf("%v: shard %v score %d = %g, full grid has %g", k, span, j, s, full.Scores[span[0]+j])
				}
			}
		}
	}
}

// pollCountCtx counts Err() polls and trips after a fixed number.
type pollCountCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *pollCountCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestWindowCancellation(t *testing.T) {
	x, y := tpTestSample(200, 3)
	g, err := DefaultGrid(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := WindowGridSearch(ctx, x, y, g, kernel.Epanechnikov); !errors.Is(err, context.Canceled) || r.Scores != nil {
		t.Fatalf("pre-cancelled: r=%+v err=%v", r, err)
	}
	// Polled once per bandwidth pass: a never-tripping context sees
	// exactly k polls.
	live := &pollCountCtx{Context: context.Background(), after: math.MaxInt64}
	if _, err := WindowGridSearch(live, x, y, g, kernel.Epanechnikov); err != nil {
		t.Fatal(err)
	}
	if n := live.calls.Load(); n != int64(g.Len()) {
		t.Errorf("polled %d times, want once per bandwidth (%d)", n, g.Len())
	}
	mid := &pollCountCtx{Context: context.Background(), after: 5}
	if r, err := WindowGridSearch(mid, x, y, g, kernel.Triangular); !errors.Is(err, context.Canceled) || r.Scores != nil {
		t.Fatalf("mid-flight: r=%+v err=%v", r, err)
	}
}

func TestWindowRejects(t *testing.T) {
	x := []float64{0.1, 0.4, 0.7}
	y := []float64{1, 2, 3}
	g := Grid{H: []float64{0.5}}
	if _, err := WindowGridSearch(context.Background(), x, y, g, kernel.Gaussian); err == nil {
		t.Error("accepted the gaussian kernel")
	}
	if _, err := WindowGridSearch(context.Background(), x[:1], y[:1], g, kernel.Epanechnikov); err == nil {
		t.Error("accepted a one-point sample")
	}
	if _, err := WindowGridSearch(context.Background(), x, y, Grid{H: []float64{0.5, 0.2}}, kernel.Epanechnikov); err == nil {
		t.Error("accepted a descending grid")
	}
}

// TestWindowPooledAllocs pins the pooling: with a warm workspace pool
// the only allocation is the score vector handed back in Result.
func TestWindowPooledAllocs(t *testing.T) {
	x, y := tpTestSample(1000, 5)
	g, err := DefaultGrid(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WindowGridSearch(context.Background(), x, y, g, kernel.Epanechnikov); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("the race runtime drops pooled workspaces at random")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := WindowGridSearch(context.Background(), x, y, g, kernel.Epanechnikov); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%.1f allocs per selection, want at most 1 (the returned scores)", allocs)
	}
}

// FuzzWindowVsNaive differentially fuzzes the window sweep against the
// naive objective on every kernel it supports, under the Exact-class
// tolerance. The decoder keeps X on a binary lattice (distances are
// exact, and a near-tie with a grid bandwidth is at least a lattice
// step away, which caps the boundary conditioning every selector
// shares — see FuzzCompensatedSweep) and maps the shape byte onto the
// adversarial regimes of the window sums:
//
//	0: X on a 1/1024 lattice in [0, 4), paper default grid
//	1: the same lattice shifted by 1e3
//	2: the same lattice shifted by 1e8
//	3: X on a 2⁻³⁰ lattice plus a remote point at 4 — spread/h ≥ 10⁶
//	4: X on an integer lattice, integer grid — exact boundary ties
func FuzzWindowVsNaive(f *testing.F) {
	seed := func(xs []uint16, ys []int16) []byte {
		out := make([]byte, 0, 4*len(xs))
		var b [2]byte
		for i := range xs {
			binary.LittleEndian.PutUint16(b[:], xs[i])
			out = append(out, b[:]...)
			binary.LittleEndian.PutUint16(b[:], uint16(ys[i]))
			out = append(out, b[:]...)
		}
		return out
	}
	var smooth, dup, ties []uint16
	var sy, dy, ty []int16
	for i := 0; i < 48; i++ {
		smooth = append(smooth, uint16(i*85))
		sy = append(sy, int16(256*math.Sin(float64(i)/6)))
		dup = append(dup, uint16(i%4)*1024)
		dy = append(dy, int16(i*37%200-100))
		ties = append(ties, uint16(i%12))
		ty = append(ty, int16(60*(i%3)-60))
	}
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(seed(smooth, sy), uint8(12), shape)
		f.Add(seed(dup, dy), uint8(6), shape)
		f.Add(seed(ties, ty), uint8(9), shape)
	}

	f.Fuzz(func(t *testing.T, data []byte, kByte, shape uint8) {
		n := len(data) / 4
		if n > 96 {
			n = 96
		}
		if n < 2 {
			t.Skip("need two observations")
		}
		k := 2 + int(kByte)%24
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			xb := binary.LittleEndian.Uint16(data[4*i:])
			y[i] = float64(int16(binary.LittleEndian.Uint16(data[4*i+2:]))) / 256
			switch shape % 5 {
			case 0, 1, 2:
				x[i] = []float64{0, 1e3, 1e8}[shape%5] + float64(xb%4096)/1024
			case 3:
				x[i] = math.Ldexp(float64(xb%4096), -30)
			case 4:
				x[i] = float64(xb % 64)
			}
		}
		var g Grid
		var err error
		switch shape % 5 {
		case 3:
			x[n-1] = 4
			g, err = NewGrid(math.Ldexp(2, -30), math.Ldexp(float64(2+k), -30), k)
		case 4:
			g, err = NewGrid(1, float64(k), k)
		default:
			g, err = DefaultGrid(x, k)
		}
		if err != nil {
			t.Skip("degenerate domain")
		}
		ctx := context.Background()
		for _, kern := range windowKernels {
			oracle, err := NaiveGridSearch(ctx, x, y, g, kern)
			if err != nil {
				t.Fatalf("naive oracle: %v", err)
			}
			got, err := WindowGridSearch(ctx, x, y, g, kern)
			if err != nil {
				t.Fatalf("window: %v", err)
			}
			checkWindowExact(t, kern.String(), got, oracle)
		}
	})
}
