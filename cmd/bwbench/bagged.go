package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/kernel"
)

// The -bagged mode: wall-clock evidence for the bagged selector's
// headline claim — bandwidth selection on a million-point sample in
// single-digit seconds — plus an exact-vs-bagged head-to-head at the
// sizes where the full-sample two-pointer sweep is still feasible.
// BENCH_6.json in the repository root records one such run.

// baggedCell is one (n, algorithm) measurement. Exact cells carry the
// full-sample selection; bagged cells add the bag geometry, the
// relative deviation from the exact h (when an exact cell exists at the
// same n), and the speedup.
type baggedCell struct {
	N           int     `json:"n"`
	K           int     `json:"k"`
	Algo        string  `json:"algo"`
	Bags        int     `json:"bags,omitempty"`
	BagSize     int     `json:"bag_size,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	Seconds     float64 `json:"seconds_per_op"`
	H           float64 `json:"h_selected"`
	RelDev      float64 `json:"rel_dev_vs_exact,omitempty"`
	Speedup     float64 `json:"speedup_vs_exact,omitempty"`
	Iters       int     `json:"iterations"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// baggedReport is the full -bagged output.
type baggedReport struct {
	Benchmark string       `json:"benchmark"`
	Seed      int64        `json:"seed"`
	Note      string       `json:"note"`
	Cells     []baggedCell `json:"cells"`
}

// baggedSizes is the measurement grid; exact runs only up to
// baggedExactMaxN, where the Θ(n²) full-sample sweep stays affordable.
var (
	baggedSizes      = []int{10_000, 100_000, 1_000_000}
	baggedExactMaxN  = 20_000
	baggedBenchGridK = 50
)

func measureBagged(seed int64, maxN int) (baggedReport, error) {
	rep := baggedReport{
		Benchmark: "BaggedVsExact",
		Seed:      seed,
		Note: "bagged selection uses the default geometry (20 bags of min(4096, max(512, ceil(n^0.7))) " +
			"observations) rescaled by (m/n)^(1/5); exact is the full-sample two-pointer sweep, " +
			"measured only where its quadratic cost is affordable",
	}
	for _, n := range baggedSizes {
		if n > maxN {
			continue
		}
		d := data.GeneratePaper(n, seed)
		g, err := bandwidth.DefaultGrid(d.X, baggedBenchGridK)
		if err != nil {
			return rep, err
		}
		var exactNs int64
		var exactH float64
		if n <= baggedExactMaxN {
			var r bandwidth.Result
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					r, err = bandwidth.TwoPointerGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, bandwidth.Compensated)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			exactNs, exactH = res.NsPerOp(), r.H
			cell := baggedCell{
				N: n, K: baggedBenchGridK, Algo: "exact",
				NsPerOp: res.NsPerOp(), Seconds: float64(res.NsPerOp()) / float64(time.Second),
				H: r.H, Iters: res.N, AllocsPerOp: res.AllocsPerOp(),
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(os.Stderr, "bwbench: n=%-9d exact   %12d ns/op  h=%.6g\n", n, cell.NsPerOp, r.H)
		}
		opt := bandwidth.BaggedOptions{Bags: bandwidth.DefaultBags, BagSize: bandwidth.DefaultBagSize(n), Seed: uint64(seed)}
		var br bandwidth.BaggedResult
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				br, err = bandwidth.BaggedGridSearch(context.Background(), d.X, d.Y, g, kernel.Epanechnikov, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		cell := baggedCell{
			N: n, K: baggedBenchGridK, Algo: "bagged",
			Bags: opt.Bags, BagSize: opt.BagSize,
			NsPerOp: res.NsPerOp(), Seconds: float64(res.NsPerOp()) / float64(time.Second),
			H: br.H, Iters: res.N, AllocsPerOp: res.AllocsPerOp(),
		}
		if exactNs > 0 && cell.NsPerOp > 0 {
			cell.Speedup = float64(exactNs) / float64(cell.NsPerOp)
			if exactH > 0 {
				cell.RelDev = abs(br.H-exactH) / exactH
			}
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(os.Stderr, "bwbench: n=%-9d bagged  %12d ns/op  h=%.6g  (r=%d, m=%d)\n",
			n, cell.NsPerOp, br.H, opt.Bags, opt.BagSize)
	}
	return rep, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// runBagged executes the -bagged mode, writing JSON to stdout or to the
// -o path when given. maxN caps the measured sizes so CI smoke runs
// skip the million-point cell.
func runBagged(seed int64, outPath string, maxN int) error {
	rep, err := measureBagged(seed, maxN)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
