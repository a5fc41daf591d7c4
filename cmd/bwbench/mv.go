package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/mvreg"
)

// The -mv mode: a machine-readable head-to-head of the multivariate
// fast-sum-updating mesh sweep against the naive per-cell objective,
// the benchmark gate for the d-dimensional generalisation (BENCH_8.json
// in the repository root records one such run). Before timing, both
// algorithms run once and must agree on the selected cell — a benchmark
// of a wrong answer is worthless.

// mvCell is one (n, d, k, algorithm) measurement.
type mvCell struct {
	N       int     `json:"n"`
	D       int     `json:"d"`
	K       int     `json:"k"`
	Algo    string  `json:"algo"`
	NsPerOp int64   `json:"ns_per_op"`
	Allocs  int64   `json:"allocs_per_op"`
	Bytes   int64   `json:"bytes_per_op"`
	Iters   int     `json:"iterations"`
	Speedup float64 `json:"speedup_vs_naive,omitempty"`
}

// mvReport is the full -mv output.
type mvReport struct {
	Benchmark string   `json:"benchmark"`
	Seed      int64    `json:"seed"`
	Cells     []mvCell `json:"cells"`
}

// mvSizes is the published grid; the n = 10,000 row is the acceptance
// cell (≥5× over the naive mesh at d = 2, k = 8).
var mvSizes = struct {
	ns []int
	d  int
	k  int
}{ns: []int{1000, 2500, 10000}, d: 2, k: 8}

// mvBenchSample draws a smooth bivariate surface with noise, matching
// the mvreg test corpus shape at benchmark scale.
func mvBenchSample(n int, seed int64) mvreg.Sample {
	rng := rand.New(rand.NewSource(seed))
	s := mvreg.Sample{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		s.X[i] = []float64{a, b}
		s.Y[i] = a + 2*b*b + math.Sin(4*a*b) + 0.2*rng.NormFloat64()
	}
	return s
}

// naiveMeshSearch is the per-cell oracle search: the full CVScore at
// every cell of the mesh, odometer order, strict first minimum.
func naiveMeshSearch(s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
	d := len(grids)
	idx := make([]int, d)
	h := make([]float64, d)
	best := mvreg.Result{CV: math.Inf(1)}
	for {
		for j := range h {
			h[j] = grids[j][idx[j]]
		}
		cv := mvreg.CVScore(s, h, kernel.Epanechnikov)
		best.Evals++
		if cv < best.CV {
			best.CV = cv
			best.H = append(best.H[:0], h...)
		}
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < len(grids[j]) {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	return best, nil
}

func measureMV(seed int64, maxN int) (mvReport, error) {
	rep := mvReport{Benchmark: "MVSweepVsNaive", Seed: seed}
	for _, n := range mvSizes.ns {
		if n > maxN {
			fmt.Fprintf(os.Stderr, "bwbench: skipping n=%d (above -mv-maxn %d)\n", n, maxN)
			continue
		}
		s := mvBenchSample(n, seed)
		grids, err := mvreg.DefaultGrids(s, mvSizes.k)
		if err != nil {
			return rep, err
		}
		// Correctness gate before timing.
		fast, err := mvreg.MeshSearch(context.Background(), s, grids, kernel.Epanechnikov)
		if err != nil {
			return rep, err
		}
		naive, err := naiveMeshSearch(s, grids)
		if err != nil {
			return rep, err
		}
		for j := range fast.H {
			if fast.H[j] != naive.H[j] {
				return rep, fmt.Errorf("n=%d: fast sweep selected %v, naive %v", n, fast.H, naive.H)
			}
		}
		if mathx.RelDiff(fast.CV, naive.CV) > 1e-9 {
			return rep, fmt.Errorf("n=%d: fast CV %g vs naive %g", n, fast.CV, naive.CV)
		}
		var naiveNs int64
		for _, algo := range []struct {
			name string
			run  func(s mvreg.Sample, grids [][]float64) (mvreg.Result, error)
		}{
			{"naive-mesh", naiveMeshSearch},
			{"fast-sweep", func(s mvreg.Sample, grids [][]float64) (mvreg.Result, error) {
				return mvreg.MeshSearch(context.Background(), s, grids, kernel.Epanechnikov)
			}},
		} {
			run := algo.run
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := run(s, grids); err != nil {
						b.Fatal(err)
					}
				}
			})
			cell := mvCell{
				N: n, D: mvSizes.d, K: mvSizes.k, Algo: algo.name,
				NsPerOp: res.NsPerOp(),
				Allocs:  res.AllocsPerOp(),
				Bytes:   res.AllocedBytesPerOp(),
				Iters:   res.N,
			}
			switch algo.name {
			case "naive-mesh":
				naiveNs = cell.NsPerOp
			case "fast-sweep":
				if cell.NsPerOp > 0 {
					cell.Speedup = float64(naiveNs) / float64(cell.NsPerOp)
				}
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(os.Stderr, "bwbench: n=%d d=%d k=%d %-11s %14d ns/op %6d allocs/op\n",
				n, mvSizes.d, mvSizes.k, algo.name, cell.NsPerOp, cell.Allocs)
		}
	}
	return rep, nil
}

// runMV executes the -mv mode, writing JSON to stdout or to the -o path
// when given.
func runMV(seed int64, outPath string, maxN int) error {
	rep, err := measureMV(seed, maxN)
	if err != nil {
		return err
	}
	if outPath == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(io.Writer(f))
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
