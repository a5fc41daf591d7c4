// Command gpusim inspects the simulated GPU: it runs the paper's device
// pipeline (functionally for small n, as a plan for large n), prints the
// memory footprint and modelled time breakdown, and demonstrates the two
// capacity cliffs the paper reports — the out-of-memory wall above
// n = 20,000 on a 4 GB device and the 2,048-bandwidth constant-cache cap.
//
// Usage:
//
//	gpusim -n 1000 -k 50          # functional run with device report
//	gpusim -plan -n 20000 -k 50   # planning-mode cost model only
//	gpusim -cliff                 # locate the memory wall by bisection
//	gpusim -sweep                 # modelled time across the paper's sizes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n       = flag.Int("n", 1000, "sample size")
		k       = flag.Int("k", 50, "bandwidth count")
		seed    = flag.Int64("seed", 42, "data seed")
		plan    = flag.Bool("plan", false, "planning mode: cost model only, no functional execution")
		cliff   = flag.Bool("cliff", false, "bisect the largest n that fits device memory")
		sweep   = flag.Bool("sweep", false, "modelled time across the paper's sample sizes")
		tiled   = flag.Bool("tiled", false, "use the tiled (no n×n matrices) future-work pipeline")
		trace   = flag.String("trace", "", "write a Chrome Trace Event JSON of the modelled timeline to this file")
		profile = flag.String("profile", "tesla", "device profile: tesla (the paper's S10) or modern (data-centre class)")
		devices = flag.Int("devices", 1, "split the problem across this many simulated GPUs")
	)
	flag.Parse()
	var props gpu.Properties
	switch *profile {
	case "tesla":
		props = gpu.TeslaS10()
	case "modern":
		props = gpu.ModernDataCenter()
	default:
		return fmt.Errorf("unknown profile %q (tesla or modern)", *profile)
	}

	fmt.Printf("device: %s — %d SMs × %d cores @ %.2f GHz, %.1f GB global, %d KB shared/block, %d KB const (%d KB cached)\n",
		props.Name, props.SMCount, props.CoresPerSM, props.ClockHz/1e9,
		float64(props.GlobalMemBytes)/(1<<30), props.SharedMemPerBlock>>10,
		props.ConstMemBytes>>10, props.ConstCacheBytes>>10)

	if *cliff {
		maxN := core.MaxFeasibleN(*k, props, 1<<17)
		fmt.Printf("\nmemory wall: largest feasible n at k=%d is %d (paper reports failure above 20,000)\n", *k, maxN)
		fmt.Printf("tiled (future-work) pipeline wall: n = %d\n", core.MaxFeasibleNTiled(*k, props, 1<<20))
		for _, probe := range []int{20000, maxN, maxN + 1, 25000} {
			_, err := core.PlanGPU(probe, *k, props)
			status := "fits"
			if err != nil {
				status = err.Error()
			}
			fmt.Printf("  n = %6d: %s\n", probe, status)
		}
		fmt.Printf("\nconstant-cache cap: k ≤ %d\n", props.ConstCacheBytes/4)
		if _, err := core.PlanGPU(1000, 2049, props); err != nil {
			fmt.Printf("  k = 2049: %v\n", err)
		}
		return nil
	}

	if *sweep {
		fmt.Printf("\nmodelled pipeline time, k = %d (paper's CUDA column for reference):\n", *k)
		paper := map[int]float64{50: 0.09, 100: 0.09, 500: 0.15, 1000: 0.24, 5000: 1.83, 10000: 7.10, 20000: 32.49}
		fmt.Println("       n   modelled s   paper s")
		for _, nn := range []int{50, 100, 500, 1000, 5000, 10000, 20000} {
			p, err := core.PlanGPU(nn, *k, props)
			if err != nil {
				return err
			}
			ref := "    -"
			if v, ok := paper[nn]; ok {
				ref = fmt.Sprintf("%8.2f", v)
			}
			fmt.Printf("  %6d   %10.3f  %s\n", nn, p.Seconds, ref)
		}
		return nil
	}

	if *plan {
		var p core.Plan
		var err error
		switch {
		case *tiled:
			var chunk int
			p, chunk, err = core.PlanGPUTiled(*n, *k, 0, props)
			if err == nil {
				fmt.Printf("\ntiled pipeline: chunk %d, %d launches\n", chunk, (*n+chunk-1)/chunk)
			}
		case *devices > 1:
			var used int
			p, used, err = core.PlanGPUMulti(*n, *k, *devices, props)
			if err == nil {
				fmt.Printf("\nmulti-GPU pipeline: %d devices, slowest share shown\n", used)
			}
		default:
			p, err = core.PlanGPU(*n, *k, props)
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nplanning-mode pipeline, n = %d, k = %d\n", *n, *k)
		fmt.Printf("modelled time: %.4f s\n", p.Seconds)
		fmt.Printf("device memory peak: %.3f GB of %.1f GB\n",
			float64(p.Mem.Peak)/(1<<30), float64(props.GlobalMemBytes)/(1<<30))
		printLedger(p.TimeByLabel)
		t := p.KernelTally
		fmt.Printf("kernel tallies: %.3g thread-ops, %.3g raw bytes, %.3g effective bytes\n",
			float64(t.ThreadOps), float64(t.GlobalRead+t.GlobalWrite), float64(t.GlobalReadEff+t.GlobalWrEff))
		return nil
	}

	d := data.GeneratePaper(*n, *seed)
	g, err := bandwidth.DefaultGrid(d.X, *k)
	if err != nil {
		return err
	}
	res, rep, err := core.SelectGPU(context.Background(), d.X, d.Y, g, core.GPUOptions{KeepScores: false})
	if err != nil {
		return err
	}
	fmt.Printf("\nfunctional run, n = %d, k = %d\n", *n, *k)
	fmt.Printf("selected bandwidth: %.6g (grid index %d), CV = %.6g\n", res.H, res.Index, res.CV)
	fmt.Printf("modelled device time: %.4f s\n", rep.ModelSeconds)
	fmt.Printf("device memory peak: %.3f GB; %d allocations; %d launches; %d memcpys (%.1f KB H2D, %.1f KB D2H)\n",
		float64(rep.Mem.Peak)/(1<<30), rep.Mem.Allocs, rep.Stats.Launches, rep.Stats.Memcpys,
		float64(rep.Stats.BytesH2D)/1024, float64(rep.Stats.BytesD2H)/1024)
	printLedger(rep.TimeByLabel)
	mt := rep.MainTally
	fmt.Printf("main kernel: %d threads in %d blocks; divergence ratio %.3f; %.3g effective bytes (%.1fx raw, uncoalescing)\n",
		mt.Threads, mt.Blocks, mt.DivergenceRatio(gpu.TeslaS10().WarpSize),
		float64(mt.GlobalReadEff+mt.GlobalWrEff),
		float64(mt.GlobalReadEff+mt.GlobalWrEff)/float64(mt.GlobalRead+mt.GlobalWrite))

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := gpu.ExportChromeTrace(f, rep.Events); err != nil {
			return err
		}
		fmt.Printf("modelled timeline written to %s (open in Perfetto / chrome://tracing)\n", *trace)
	}

	// Cross-check against the sequential program, as §IV.C prescribes.
	seq, err := core.SortedSequential(context.Background(), d.X, d.Y, g, bandwidth.Compensated)
	if err != nil {
		return err
	}
	if err := core.VerifyAgreement(res, seq, 1e-4); err != nil {
		return fmt.Errorf("device/host disagreement: %w", err)
	}
	fmt.Println("agreement check vs Sequential C: identical selection ✓")
	return nil
}

func printLedger(byLabel map[string]float64) {
	type kv struct {
		label string
		sec   float64
	}
	var items []kv
	for l, s := range byLabel {
		items = append(items, kv{l, s})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].sec > items[j].sec })
	fmt.Println("modelled time by activity:")
	for _, it := range items {
		fmt.Printf("  %-12s %.4f s\n", it.label, it.sec)
	}
}
