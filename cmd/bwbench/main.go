// Command bwbench regenerates the paper's evaluation: Figure 1, Table I,
// and Table II, alongside the paper's published numbers.
//
// Usage:
//
//	bwbench -table1            # Table I: run times by program and n
//	bwbench -table2a -table2b  # Table II panels
//	bwbench -figure1           # Figure 1 (ASCII plot + TSV)
//	bwbench -all               # everything
//	bwbench -full              # measure up to the paper's n = 20,000
//	                           # (otherwise large n is extrapolated)
//	bwbench -runs 5            # the paper's 5-repetition protocol
//	bwbench -twopointer        # two-pointer vs sorted head-to-head (JSON)
//	bwbench -twopointer -o BENCH_4.json
//	bwbench -bagged            # bagged vs exact up to n = 1,000,000 (JSON)
//	bwbench -bagged -o BENCH_6.json
//	bwbench -mv                # multivariate mesh sweep vs naive (JSON)
//	bwbench -mv -o BENCH_8.json
//	bwbench -coord             # cluster coordinator: cache + sharding (JSON)
//	bwbench -coord -o BENCH_9.json
//	bwbench -window            # window-sum sweep vs twopointer and bagged (JSON)
//	bwbench -window -o BENCH_12.json
//
// Columns marked * are the GPU simulator's modelled device seconds;
// columns marked ^ are extrapolated along the program's complexity curve
// from the largest measured size. Everything else is measured wall time
// of this repository's Go implementations.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bwbench:", err)
		os.Exit(1)
	}
}

// render writes a table as ASCII or JSON per the -json flag.
func render(tab *harness.Table, jsonOut bool) error {
	if jsonOut {
		return tab.WriteJSON(os.Stdout)
	}
	return tab.Render(os.Stdout)
}

func run() error {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table I")
		table2a = flag.Bool("table2a", false, "regenerate Table II Panel A (sequential)")
		table2b = flag.Bool("table2b", false, "regenerate Table II Panel B (CUDA model)")
		figure1 = flag.Bool("figure1", false, "regenerate Figure 1")
		verdict = flag.Bool("verdict", false, "run the automated reproduction verdicts (shape checks)")
		future  = flag.Bool("future", false, "print the future-work pipelines' modelled scaling (tiled, dual-GPU)")
		jsonOut = flag.Bool("json", false, "emit tables and series as JSON instead of ASCII")
		all     = flag.Bool("all", false, "regenerate everything")
		full    = flag.Bool("full", false, "measure every cell directly (slow); default extrapolates beyond -maxn")
		maxn    = flag.Int("maxn", 2000, "largest n measured directly in quick mode")
		runs    = flag.Int("runs", 3, "repetitions per cell (paper: 5)")
		k       = flag.Int("k", 50, "bandwidth count for Table I / Figure 1")
		seed    = flag.Int64("seed", 42, "data seed")
		paper   = flag.Bool("paper", true, "also print the paper's published numbers")
		extra   = flag.Bool("gonative", false, "include the Go-native parallel selectors in Table I")
		twoPtr  = flag.Bool("twopointer", false, "benchmark the two-pointer sweep against the sorted search and emit JSON")
		bagged  = flag.Bool("bagged", false, "benchmark bagged selection up to n=1,000,000 against the exact sweep and emit JSON")
		bagMaxN = flag.Int("bagged-maxn", 1_000_000, "largest n measured by -bagged (CI smoke runs cap this)")
		mv      = flag.Bool("mv", false, "benchmark the multivariate mesh sweep against the naive per-cell search and emit JSON")
		mvMaxN  = flag.Int("mv-maxn", 10_000, "largest n measured by -mv (CI smoke runs cap this)")
		coordB  = flag.Bool("coord", false, "benchmark the cluster coordinator's cache and modelled replica scaling and emit JSON")
		coMaxN  = flag.Int("coord-maxn", 10_000, "largest n measured by -coord (CI smoke runs cap this)")
		window  = flag.Bool("window", false, "benchmark the window-sum sweep against twopointer (same-run gate) and bagged, and emit JSON")
		winMaxN = flag.Int("window-maxn", 1_000_000, "largest n measured by -window (CI smoke runs cap this)")
		outPath = flag.String("o", "", "output file for -twopointer/-bagged/-mv/-coord/-window JSON (default stdout)")
	)
	flag.Parse()
	if *twoPtr {
		return runTwoPointer(*seed, *outPath)
	}
	if *bagged {
		return runBagged(*seed, *outPath, *bagMaxN)
	}
	if *mv {
		return runMV(*seed, *outPath, *mvMaxN)
	}
	if *coordB {
		return runCoord(*seed, *outPath, *coMaxN)
	}
	if *window {
		return runWindow(*seed, *outPath, *winMaxN)
	}
	if !*table1 && !*table2a && !*table2b && !*figure1 && !*verdict && !*future {
		*all = true
	}
	if *all {
		*table1, *table2a, *table2b, *figure1 = true, true, true, true
	}

	cfg := harness.Config{Seed: *seed, Runs: *runs, K: *k}
	if !*full {
		cfg.MaxMeasureN = map[harness.Program]int{
			harness.ProgNumerical:   *maxn,
			harness.ProgNumericalMC: *maxn,
			harness.ProgSeqC:        *maxn * 2,
			harness.ProgSortedGo:    *maxn * 2,
			harness.ProgParallelGo:  *maxn * 2,
		}
	}
	programs := harness.PaperPrograms
	if *extra {
		programs = harness.AllPrograms
	}

	if *verdict || *all {
		fmt.Println("=== Reproduction verdicts ===")
		checks, err := harness.Verdicts(cfg)
		if err != nil {
			return err
		}
		failures, err := harness.WriteVerdicts(os.Stdout, checks)
		if err != nil {
			return err
		}
		if failures > 0 {
			defer os.Exit(1)
		}
		fmt.Println()
	}

	if *figure1 {
		fmt.Println("=== Figure 1 ===")
		series, err := harness.Figure1(programs, cfg)
		if err != nil {
			return err
		}
		if err := harness.PlotASCII(os.Stdout, series, 72, 22); err != nil {
			return err
		}
		fmt.Println()
		if *jsonOut {
			if err := harness.WriteSeriesJSON(os.Stdout, series); err != nil {
				return err
			}
		} else if err := harness.WriteSeriesTSV(os.Stdout, series); err != nil {
			return err
		}
		if *paper {
			fmt.Println("\n--- paper's published Figure 1 ---")
			if err := harness.PlotASCII(os.Stdout, harness.PaperFigure1(), 72, 22); err != nil {
				return err
			}
		}
		fmt.Println()
	}

	if *table1 {
		fmt.Println("=== Table I ===")
		tab, err := harness.Table1(programs, cfg)
		if err != nil {
			return err
		}
		if err := render(tab, *jsonOut); err != nil {
			return err
		}
		sp, err := harness.Speedups(tab, 0)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := render(sp, *jsonOut); err != nil {
			return err
		}
		if *paper {
			fmt.Println()
			if err := harness.PaperTable1Reference().Render(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("paper headline: CUDA %.2fx faster than R np at n = 20,000\n", harness.PaperSpeedupAt20000)
		}
		fmt.Println()
	}

	if *table2a {
		fmt.Println("=== Table II Panel A ===")
		tab, err := harness.Table2(harness.ProgSeqC, nil, nil, cfg)
		if err != nil {
			return err
		}
		if err := render(tab, *jsonOut); err != nil {
			return err
		}
		if *paper {
			fmt.Println()
			if err := harness.PaperTable2Reference(false).Render(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}

	if *future || *all {
		fmt.Println("=== Future-work pipelines (this repository's extension) ===")
		tab, err := harness.FutureTable(cfg, nil)
		if err != nil {
			return err
		}
		if err := render(tab, *jsonOut); err != nil {
			return err
		}
		fmt.Println()
	}

	if *table2b {
		fmt.Println("=== Table II Panel B ===")
		tab, err := harness.Table2(harness.ProgGPU, nil, nil, cfg)
		if err != nil {
			return err
		}
		if err := render(tab, *jsonOut); err != nil {
			return err
		}
		if *paper {
			fmt.Println()
			if err := harness.PaperTable2Reference(true).Render(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}
