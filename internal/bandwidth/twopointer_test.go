package bandwidth

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/sortx"
)

// twoPointerTol bounds the re-association noise between the two-pointer
// enumeration and the per-observation argsort: the prefix multisets are
// identical at every bandwidth boundary, so only the summation order of
// exact ties can differ.
const twoPointerTol = 1e-9

// tpTestSample builds a deterministic sample with duplicates, clusters
// and unsorted order — the shapes the global sort must normalise.
func tpTestSample(n int, seed int64) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		switch i % 5 {
		case 0:
			x[i] = float64(i%7) / 3 // heavy duplication
		case 1:
			x[i] = 10 + rng.Float64()*0.01 // tight cluster
		default:
			x[i] = rng.Float64() * 10
		}
		y[i] = math.Sin(3*x[i]) + 0.1*rng.NormFloat64()
	}
	rng.Shuffle(n, func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
	return x, y
}

func TestTwoPointerMatchesSorted(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2, 3, 17, 257} {
		x, y := tpTestSample(n, int64(n))
		g, err := DefaultGrid(x, 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular} {
			for _, st := range []Stability{Compensated, Uncompensated} {
				want, err := SortedGridSearch(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TwoPointerGridSearch(ctx, x, y, g, k, st)
				if err != nil {
					t.Fatal(err)
				}
				if got.Index != want.Index {
					t.Errorf("n=%d %v/%v: twopointer index %d, sorted %d", n, k, st, got.Index, want.Index)
				}
				for j := range want.Scores {
					if mathx.RelDiff(got.Scores[j], want.Scores[j]) > twoPointerTol {
						t.Errorf("n=%d %v/%v: score %d diverges: %g vs %g",
							n, k, st, j, got.Scores[j], want.Scores[j])
					}
				}
			}
		}
	}
}

func TestTwoPointerParallelMatchesSequential(t *testing.T) {
	x, y := tpTestSample(311, 7)
	g, err := DefaultGrid(x, 40)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TwoPointerGridSearch(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 5, 16} {
		got, err := TwoPointerGridSearchParallel(context.Background(), x, y, g, workers, Compensated)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index {
			t.Errorf("workers=%d: index %d, sequential %d", workers, got.Index, want.Index)
		}
		for j := range want.Scores {
			if mathx.RelDiff(got.Scores[j], want.Scores[j]) > twoPointerTol {
				t.Errorf("workers=%d: score %d diverges: %g vs %g", workers, j, got.Scores[j], want.Scores[j])
			}
		}
	}
}

// TestParallelFewerObservationsThanWorkers pins the shard clamp: with
// n < workers both parallel families must degrade to at most n shards
// (empty shards are fine, out-of-range ones are not) and still agree
// with the sequential search.
func TestParallelFewerObservationsThanWorkers(t *testing.T) {
	x := []float64{0.9, 0.1, 0.5}
	y := []float64{1, 2, 0}
	g, err := NewGrid(0.2, 1.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SortedGridSearch(context.Background(), x, y, g, kernel.Epanechnikov, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (Result, error){
		"sorted-parallel": func() (Result, error) { return SortedGridSearchParallel(context.Background(), x, y, g, 8, Compensated) },
		"twopointer-parallel": func() (Result, error) {
			return TwoPointerGridSearchParallel(context.Background(), x, y, g, 8, Compensated)
		},
	} {
		got, err := run()
		if err != nil {
			t.Fatalf("%s with workers > n: %v", name, err)
		}
		if got.Index != want.Index || mathx.RelDiff(got.CV, want.CV) > twoPointerTol {
			t.Errorf("%s: (index=%d cv=%g), sequential (index=%d cv=%g)",
				name, got.Index, got.CV, want.Index, want.CV)
		}
	}
}

func TestTwoPointerLocalLinearMatchesSorted(t *testing.T) {
	x, y := tpTestSample(197, 11)
	g, err := DefaultGrid(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SortedGridSearchLocalLinear(context.Background(), x, y, g, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TwoPointerGridSearchLocalLinear(context.Background(), x, y, g, Compensated)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != want.Index {
		t.Fatalf("ll twopointer index %d, ll sorted %d", got.Index, want.Index)
	}
	for j := range want.Scores {
		a, b := want.Scores[j], got.Scores[j]
		if mathx.IsFinite(a) != mathx.IsFinite(b) {
			t.Fatalf("ll score %d finiteness differs: %g vs %g", j, a, b)
		}
		if mathx.IsFinite(a) && mathx.RelDiff(a, b) > twoPointerTol {
			t.Fatalf("ll score %d diverges: %g vs %g", j, a, b)
		}
	}
}

// TestTwoPointerIntoZeroAlloc pins the workspace contract: with a
// caller-held workspace the search itself must not touch the heap.
func TestTwoPointerIntoZeroAlloc(t *testing.T) {
	x, y := tpTestSample(256, 3)
	g, err := DefaultGrid(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	ws := AcquireWorkspace(len(x), g.Len())
	defer ws.Release()
	ctx := context.Background()
	if _, err := TwoPointerGridSearchInto(ctx, x, y, g, kernel.Epanechnikov, Compensated, ws); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := TwoPointerGridSearchInto(ctx, x, y, g, kernel.Epanechnikov, Compensated, ws); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("TwoPointerGridSearchInto allocates %.2f objects/op with a warm workspace, want 0", avg)
	}
}

func TestWorkspacePoolStats(t *testing.T) {
	h0, m0 := PoolStats()
	ws := AcquireWorkspace(1024, 16)
	ws.Release()
	ws = AcquireWorkspace(1000, 16) // same capacity class: must hit
	ws.Release()
	h1, m1 := PoolStats()
	if m1 <= m0 && h1 <= h0 {
		t.Errorf("pool counters did not move: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	if h1 == h0 {
		t.Errorf("second acquire in the same class missed the pool (hits %d→%d)", h0, h1)
	}
}

// FuzzTwoPointerOrder pins the enumeration equivalence the whole family
// rests on: for any sample — duplicated, tied, unsorted — the
// two-pointer merge and the per-observation QuickSort emit the same
// distance array bitwise, and within every run of equal distances the
// same multiset of Y payloads. That is exactly the "same multiset at
// every prefix boundary" property the sweeps require.
func FuzzTwoPointerOrder(f *testing.F) {
	var sx, sy, dx, dy []float64
	for i := 0; i < 32; i++ {
		sx = append(sx, float64(i)/8)
		sy = append(sy, math.Cos(float64(i)))
		dx = append(dx, float64(i%4)) // massive duplication
		dy = append(dy, float64(i))
	}
	f.Add(fuzzLatticeSeed(sx, sy), uint8(0))
	f.Add(fuzzLatticeSeed(dx, dy), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, offByte uint8) {
		x, y := fuzzLatticeDecode(data, 96, offByte)
		if len(x) < 2 {
			t.Skip("need two observations")
		}
		n := len(x)
		xs := append([]float64(nil), x...)
		ys := append([]float64(nil), y...)
		sortx.QuickSort64(xs, ys)

		absd := make([]float64, n-1)
		yv := make([]float64, n-1)
		ref := newSortedWorkspace(n)
		for i := 0; i < n; i++ {
			twoPointerFill(xs, ys, i, absd, yv)
			ref.fill(xs, ys, i)
			for w := 0; w < n-1; w++ {
				if absd[w] != ref.absd[w] {
					t.Fatalf("obs %d: distance %d differs bitwise: twopointer %v, argsort %v",
						i, w, absd[w], ref.absd[w])
				}
			}
			// Within each run of equal distances the Y payloads must form
			// the same multiset (order within a run is unspecified — both
			// enumerations break ties arbitrarily).
			for lo := 0; lo < n-1; {
				hi := lo + 1
				for hi < n-1 && absd[hi] == absd[lo] {
					hi++
				}
				a := append([]float64(nil), yv[lo:hi]...)
				b := append([]float64(nil), ref.yv[lo:hi]...)
				sort.Float64s(a)
				sort.Float64s(b)
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("obs %d: tie run [%d,%d) has different Y multisets: %v vs %v",
							i, lo, hi, a, b)
					}
				}
				lo = hi
			}
		}
	})
}
