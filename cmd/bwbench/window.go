package main

import (
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

// The -window mode: wall-clock evidence for the window-sum sweep's
// O(n log n + k·n) claim, next to the BENCH_4 and BENCH_6 baselines.
// BENCH_12.json in the repository root records one such run.
//
//   - n = 10,000, k = 50: the window sweep against the two-pointer sweep
//     measured in the same run, gated on the ratio (≥ windowMinSpeedup)
//     and on both selecting the same grid point. A same-run ratio holds
//     on any host; an absolute time does not.
//   - n = 1,000,000, k = 50: an exact window selection, timed against
//     the approximate bagged path in the same run and against BENCH_6's
//     recorded 3.15 s for that path.
//
// Every number is measured wall time of the Go code; nothing is
// modelled.

// windowMinSpeedup is the gate on window vs twopointer at n = 10,000.
const windowMinSpeedup = 20

// bench6BaggedSeconds is BENCH_6.json's n = 1,000,000 bagged selection.
const bench6BaggedSeconds = 3.151440889

// windowCell is one (n, algorithm) measurement.
type windowCell struct {
	N       int     `json:"n"`
	K       int     `json:"k"`
	Algo    string  `json:"algo"`
	NsPerOp int64   `json:"ns_per_op"`
	Seconds float64 `json:"seconds_per_op"`
	Allocs  int64   `json:"allocs_per_op"`
	Iters   int     `json:"iterations"`
	H       float64 `json:"h_selected"`
	// Index is the selected grid index; -1 for the bagged aggregate.
	Index int `json:"index"`
	// Speedup is the window cell's same-run ratio against the other
	// algorithm at the same n.
	Speedup float64 `json:"speedup,omitempty"`
}

// windowGate records the same-run acceptance check.
type windowGate struct {
	N             int     `json:"n"`
	K             int     `json:"k"`
	MinSpeedup    float64 `json:"min_speedup_vs_twopointer"`
	Speedup       float64 `json:"speedup_vs_twopointer"`
	SameSelection bool    `json:"same_selection"`
	Pass          bool    `json:"pass"`
}

// windowReport is the full -window output.
type windowReport struct {
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	// Measured is true: every cell is wall time of the Go code on the
	// host that ran it, not a model.
	Measured bool         `json:"measured"`
	Note     string       `json:"note"`
	Gate     *windowGate  `json:"gate,omitempty"`
	Bench6   float64      `json:"bench6_bagged_seconds_n1e6"`
	Cells    []windowCell `json:"cells"`
}

// windowSizes are the measured sample sizes; the gate cell is the first.
var windowSizes = []int{10_000, 1_000_000}

// benchSelect times one selector with testing.Benchmark and returns the
// cell (Speedup unset) plus the last result.
func benchSelect(n, k int, algo string, run func() (bandwidth.Result, error)) (windowCell, error) {
	var r bandwidth.Result
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r, runErr = run(); runErr != nil {
				b.Fatal(runErr)
			}
		}
	})
	if runErr != nil {
		return windowCell{}, runErr
	}
	cell := windowCell{
		N: n, K: k, Algo: algo,
		NsPerOp: res.NsPerOp(), Seconds: float64(res.NsPerOp()) / float64(time.Second),
		Allocs: res.AllocsPerOp(), Iters: res.N, H: r.H, Index: r.Index,
	}
	fmt.Fprintf(os.Stderr, "bwbench: n=%-9d %-10s %12d ns/op  h=%.6g\n", n, algo, cell.NsPerOp, r.H)
	return cell, nil
}

func measureWindow(seed int64, maxN int) (windowReport, error) {
	const k = 50
	rep := windowReport{
		Benchmark: "WindowSweep",
		Seed:      seed,
		Measured:  true,
		Bench6:    bench6BaggedSeconds,
		Note: "window is the exact O(n log n + k·n) window-sum sweep; at n = 10,000 it is gated against the " +
			"two-pointer sweep in the same run, at n = 1,000,000 it is timed against the approximate bagged path " +
			"(default geometry) in the same run and against BENCH_6's recorded bagged time",
	}
	for _, n := range windowSizes {
		if n > maxN {
			continue
		}
		d := data.GeneratePaper(n, seed)
		g, err := bandwidth.DefaultGrid(d.X, k)
		if err != nil {
			return rep, err
		}
		win, err := benchSelect(n, k, "window", func() (bandwidth.Result, error) {
			return bandwidth.WindowGridSearch(d.X, d.Y, g, kernel.Epanechnikov)
		})
		if err != nil {
			return rep, err
		}
		var other windowCell
		if n == windowSizes[0] {
			other, err = benchSelect(n, k, "twopointer", func() (bandwidth.Result, error) {
				return bandwidth.TwoPointerGridSearchKernel(d.X, d.Y, g, kernel.Epanechnikov)
			})
		} else {
			opt := bandwidth.BaggedOptions{Bags: bandwidth.DefaultBags, BagSize: bandwidth.DefaultBagSize(n), Seed: uint64(seed)}
			other, err = benchSelect(n, k, "bagged", func() (bandwidth.Result, error) {
				br, err := bandwidth.BaggedGridSearch(d.X, d.Y, g, kernel.Epanechnikov, opt)
				return br.Result, err
			})
		}
		if err != nil {
			return rep, err
		}
		if win.NsPerOp > 0 {
			win.Speedup = float64(other.NsPerOp) / float64(win.NsPerOp)
		}
		if n == windowSizes[0] {
			rep.Gate = &windowGate{
				N: n, K: k, MinSpeedup: windowMinSpeedup, Speedup: win.Speedup,
				SameSelection: win.Index == other.Index && win.H == other.H,
			}
			rep.Gate.Pass = rep.Gate.SameSelection && win.Speedup >= windowMinSpeedup
		}
		rep.Cells = append(rep.Cells, win, other)
	}
	return rep, nil
}

// runWindow executes the -window mode, writing JSON to stdout or to the
// -o path when given, and fails when the same-run gate does not hold.
// maxN caps the measured sizes so CI smoke runs skip the million-point
// cell.
func runWindow(seed int64, outPath string, maxN int) error {
	rep, err := measureWindow(seed, maxN)
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
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if g := rep.Gate; g != nil && !g.Pass {
		return fmt.Errorf("window gate failed at n=%d: %.1f× twopointer (want ≥ %d×), same selection %v",
			g.N, g.Speedup, windowMinSpeedup, g.SameSelection)
	}
	return nil
}
