// Command perfbench is the repository's request-level benchmark. It
// starts an in-process kernregd (select-exact, bulk-ingest) or a
// kerncoord cluster over three in-process replicas (cluster-replay),
// drives it over loopback HTTP from a closed-loop generator, checks
// every answer bit for bit against the library computing the same
// input in-process, and prints one JSON result as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. README.md gives the workloads' rationale.
//
//	go run . --workload select-exact --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/wire"
	"repro/kernreg"
)

const (
	// setupsBefore and setupsAfter are how many times a run sets the
	// workload up before and after its load; setup_s is the median of
	// all of them. Setups on both sides of the load sample the host's
	// speed over the same stretch of time as the load does.
	setupsBefore = 2
	setupsAfter  = 3
	// traceWindow is the length of the alternating untraced and traced
	// windows of a --trace 1 run. Short windows let the host's drift
	// cancel out of trace.overhead.
	traceWindow = time.Second
	// warmup is load run before measuring: it fills the coordinator's
	// hedge latency ring and settles connections, pools and the heap.
	warmup = 2 * time.Second
	// freshPerSecond is how many unique inputs per class and client are
	// built during setup for each second of load; more are built on
	// demand, which the record reports as late_built.
	freshPerSecond = 6
	// directReps is how many times each direct library call is timed
	// per input, and freshSampled how many fresh inputs per class are.
	directReps   = 3
	freshSampled = 5
	// budget bounds a whole run.
	budget = 170 * time.Second
	// clients is the closed loop's size. The benchmark refuses to run
	// on fewer CPUs, where the generator would compete with the
	// servers it measures for a core.
	clients = 2
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "select-exact", fmt.Sprintf("traffic mix, one of %v", workloadNames))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured load")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	case !slices.Contains(workloadNames, cfg.workload):
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames)
		return 2
	case cfg.seconds < 2:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 2, got %d\n", cfg.seconds)
		return 2
	case runtime.NumCPU() < clients:
		fmt.Fprintf(stderr, "perfbench: %d clients on %d CPUs: the generator would compete with the servers it measures\n", clients, runtime.NumCPU())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	res, rec, err := bench(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the line before the result: the run's conditions and
// the evidence behind its numbers.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"clients"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Setup holds each setup's time by part.
	Setup []setupTimes `json:"setup"`
	// Measured describes the phase the end-to-end metrics come from:
	// the whole load with --trace 0, its untraced windows with
	// --trace 1.
	Measured  phaseStats            `json:"measured"`
	Classes   map[string]phaseStats `json:"classes"`
	LateBuilt int64                 `json:"late_built"`
	SpanCheck *spanCheck            `json:"span_check,omitempty"`
	// QueueWaitMs is serve.queue_wait_ms per kernregd server.
	QueueWaitMs []float64 `json:"queue_wait_ms,omitempty"`
	// NotOnPath lists per-layer metrics reported as 0 because the
	// workload does not reach that layer.
	NotOnPath []string `json:"not_on_path,omitempty"`
	SpansFile string   `json:"spans_file,omitempty"`
}

type phaseStats struct {
	Requests  int      `json:"requests"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Completed int      `json:"completed_in_window"`
	P50Ms     quantile `json:"latency_p50_ms"`
	P95Ms     quantile `json:"latency_p95_ms"`
}

// statsOf summarises the records of p that pass keep. Latency counts
// correct responses that ended inside the phase.
func statsOf(p *phase, keep func(*record) bool) phaseStats {
	var s phaseStats
	var ms []float64
	for _, r := range p.recs {
		if !keep(r) {
			continue
		}
		s.Requests++
		if !r.ok {
			s.Failed++
		} else if r.inWindow {
			ms = append(ms, r.ms())
		}
	}
	s.Completed = len(ms)
	s.ErrorRate = ratio(float64(s.Failed), float64(s.Requests))
	s.P50Ms = percentile(ms, 0.5)
	s.P95Ms = percentile(ms, 0.95)
	return s
}

func bench(ctx context.Context, cfg config, log io.Writer) (*result, *runRecord, error) {
	e, before, err := timeSetups(ctx, cfg, setupsBefore, true, log)
	if err != nil {
		return nil, nil, err
	}
	res, rec, err := measure(ctx, cfg, e)
	if cerr := e.close(); cerr != nil && err == nil {
		err = fmt.Errorf("stopping the servers: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	_, after, err := timeSetups(ctx, cfg, setupsAfter, false, log)
	if err != nil {
		return nil, nil, err
	}
	rec.Setup = append(before, after...)
	if !cfg.trace {
		var totals []float64
		for _, st := range rec.Setup {
			totals = append(totals, st.Total)
		}
		res.Metrics["setup_s"] = metricValue{p50(totals), "s"}
	}
	return res, rec, nil
}

// timeSetups sets the workload up n times and returns each setup's
// times. With keep it returns the last setup still running; every
// other setup is torn down.
func timeSetups(ctx context.Context, cfg config, n int, keep bool, log io.Writer) (*env, []setupTimes, error) {
	fresh := int(freshPerSecond * (warmup.Seconds() + float64(cfg.seconds)))
	var times []setupTimes
	for i := 0; i < n; i++ {
		// Each setup starts from a collected heap, so that it does not
		// pay for the garbage of the one before.
		runtime.GC()
		e, st, err := setUp(ctx, cfg.workload, cfg.seed, fresh)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, st)
		fmt.Fprintf(log, "perfbench: %s setup took %.3f s\n", cfg.workload, st.Total)
		if keep && i == n-1 {
			return e, times, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, fmt.Errorf("closing a setup: %w", err)
		}
	}
	return nil, times, nil
}

// measure warms e up, runs the load, checks every answer and computes
// the metrics, all but setup_s.
func measure(ctx context.Context, cfg config, e *env) (*result, *runRecord, error) {
	seqs := newClientSeqs(e.w, cfg.seed)
	warm, err := e.run(ctx, seqs, warmup)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	phases := []*phase{warm}
	d := time.Duration(cfg.seconds) * time.Second
	var measured *phase
	var td *traceData
	if cfg.trace {
		if td, err = e.tracedRun(ctx, seqs, d); err != nil {
			return nil, nil, err
		}
		measured = td.untraced
		phases = append(phases, td.untraced, td.traced)
	} else {
		if measured, err = e.run(ctx, seqs, d); err != nil {
			return nil, nil, err
		}
		phases = append(phases, measured)
	}
	var all []*record
	for _, p := range phases {
		all = append(all, p.recs...)
	}
	if td != nil {
		if err := e.directCalls(ctx, td); err != nil {
			return nil, nil, fmt.Errorf("direct calls: %w", err)
		}
	}
	if err := verifyFresh(ctx, all, clients); err != nil {
		return nil, nil, fmt.Errorf("verifying: %w", err)
	}

	res := &result{Correct: true, Attempted: len(all), Metrics: map[string]metricValue{}}
	for _, r := range all {
		if !r.ok {
			res.Failed++
		}
	}
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Clients: clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Measured:  statsOf(measured, func(*record) bool { return true }),
		Classes:   map[string]phaseStats{},
		LateBuilt: e.lateBuilt.Load(),
	}
	for _, c := range e.w.classes {
		rec.Classes[c.name] = statsOf(measured, func(r *record) bool { return r.job.class == c.name })
	}
	if !cfg.trace {
		values := map[string]float64{
			"throughput_rps":   rps(measured),
			"latency_p50_ms":   rec.Measured.P50Ms.Value,
			"latency_p95_ms":   rec.Measured.P95Ms.Value,
			"success_rate":     1 - rec.Measured.ErrorRate,
			"alloc_mb_per_req": ratio(float64(measured.allocBytes), float64(len(measured.recs))) / 1e6,
		}
		for _, m := range endToEndDefs {
			if v, ok := values[m.name]; ok {
				res.Metrics[m.name] = metricValue{v, m.unit}
			}
		}
	} else {
		rep := layers(e.w, td)
		rec.SpanCheck, rec.QueueWaitMs = &rep.check, rep.queueWaitMs
		for _, m := range perLayerDefs {
			v, ok := rep.values[m.name]
			if !ok {
				rec.NotOnPath = append(rec.NotOnPath, m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		rec.SpansFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(rec.SpansFile, td.spans); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		if rep.check.Violations > 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, rec, nil
}

// tracedRun alternates untraced and traced windows of traceWindow over
// d, so that trace.overhead compares throughput measured in the same
// stretch of time. It brackets each traced window with counter
// snapshots and samples queue depths while tracing is on.
func (e *env) tracedRun(ctx context.Context, seqs []*clientSeq, d time.Duration) (*traceData, error) {
	servers := e.servers()
	td := &traceData{direct: map[string][]float64{}, jobMs: map[*job]float64{}, servers: make([]serverCounters, len(servers))}
	q := startQueueSampler(servers, &e.tr.on)
	var untraced, traced []*phase
	err := func() error {
		for left := d; left > 0; {
			w := min(traceWindow, left)
			left -= w
			if len(untraced) == len(traced) {
				p, err := e.run(ctx, seqs, w)
				if err != nil {
					return err
				}
				untraced = append(untraced, p)
				continue
			}
			before := make([]serverCounters, len(servers))
			for i, s := range servers {
				before[i] = countersOf(s)
			}
			var coordBefore coordCounters
			if e.coord != nil {
				var err error
				if coordBefore, err = e.coordMetrics(ctx); err != nil {
					return err
				}
			}
			h0, m0 := bandwidth.PoolStats()
			e.tr.on.Store(true)
			p, err := e.run(ctx, seqs, w)
			e.tr.on.Store(false)
			if err != nil {
				return err
			}
			traced = append(traced, p)
			h1, m1 := bandwidth.PoolStats()
			td.poolHits += h1 - h0
			td.poolMisses += m1 - m0
			for i, s := range servers {
				td.servers[i].add(before[i], countersOf(s))
			}
			if e.coord != nil {
				after, err := e.coordMetrics(ctx)
				if err != nil {
					return err
				}
				td.coord.add(coordBefore, after)
			}
		}
		return nil
	}()
	td.queueDepth = q.finish()
	if err != nil {
		return nil, err
	}
	td.untraced, td.traced = pool(untraced), pool(traced)
	td.spans = e.tr.take()
	return td, nil
}

// fingerprintSink keeps the timed fingerprint calls from being
// optimised away.
var fingerprintSink kernreg.Fingerprint

// directCalls times the library calls behind each layer one at a time
// on the workload's own inputs, after the load, recording a span per
// call. Fresh inputs sampled from the traced phase get their reference
// here, so its time is the job's single-node selection time.
func (e *env) directCalls(ctx context.Context, td *traceData) error {
	timed := func(spanName, metric, class string, fn func() error) (float64, error) {
		s, err := e.tr.timeCall(spanName, class, fn)
		td.direct[metric] = append(td.direct[metric], s.ms())
		return s.ms(), err
	}
	// again recomputes a hot job's reference, which must not change.
	again := func(j *job) func() error {
		return func() error {
			a, err := j.reference(ctx)
			if err == nil && !slices.Equal(a, j.want) {
				err = fmt.Errorf("%s: direct call differs from its reference", j.class)
			}
			return err
		}
	}
	for rep := 0; rep < directReps; rep++ {
		for _, c := range e.w.classes {
			for _, j := range c.hot {
				var err error
				switch {
				case e.w.name == "select-exact":
					_, err = timed("kernreg.select", "kernreg.select_ms."+c.name, c.name, again(j))
				case j.kind == kindSelect:
					_, err = timed("kernreg.select", "kernreg.bagged_ms."+c.name, c.name, again(j))
				case c.name == "fp100k":
					var reg *kernreg.Regression
					_, err = timed("kernreg.fit", "kernreg.fit_ms", c.name, func() (err error) {
						reg, err = kernreg.FitKernel(j.x, j.y, fitPredictBandwidth, "epanechnikov")
						return err
					})
					if err == nil {
						_, err = timed("kernreg.predict", "kernreg.predict_ms", c.name, func() error {
							reg.PredictGrid(predictPoints)
							return nil
						})
					}
				case c.name == "hit":
					g, gerr := bandwidth.DefaultGrid(j.x, 50)
					if gerr != nil {
						return gerr
					}
					_, err = timed("kernreg.fingerprint", "kernreg.fingerprint_ms", c.name, func() error {
						fingerprintSink = kernreg.FingerprintSelect(j.x, j.y, g.H, kernreg.MethodTwoPointer, "epanechnikov", true, false)
						return nil
					})
				}
				if err != nil {
					return err
				}
			}
		}
	}
	sampled := map[string]int{}
	for _, r := range td.traced.recs {
		c := r.job.class
		if r.job.want != nil || sampled[c] == freshSampled {
			continue
		}
		sampled[c]++
		ms, err := timed("kernreg.select", "kernreg.select_ms."+c, c, func() error { return r.job.computeReference(ctx) })
		if err != nil {
			return err
		}
		td.jobMs[r.job] = ms
		if c != "miss-tp" {
			continue
		}
		// The shard protocol's wire encoding, on the largest shard body.
		for rep := 0; rep < directReps; rep++ {
			var xs, ys string
			timed("wire.encode", "wire.encode_ms", c, func() error {
				xs, ys = wire.EncodeFloat64s(r.job.x), wire.EncodeFloat64s(r.job.y)
				return nil
			})
			if _, err := timed("wire.decode", "wire.decode_ms", c, func() error {
				if _, err := wire.DecodeFloat64s(xs); err != nil {
					return err
				}
				_, err := wire.DecodeFloat64s(ys)
				return err
			}); err != nil {
				return err
			}
		}
	}
	td.spans = append(td.spans, e.tr.take()...)
	sort.Slice(td.spans, func(a, b int) bool { return td.spans[a].Start < td.spans[b].Start })
	return nil
}
