// Package coord is the cluster-scale front end for kernregd: it shards
// one bandwidth selection's candidate grid across worker replicas,
// hedges stragglers onto a second replica, and caches results keyed by
// a canonical fingerprint of the job.
//
// The correctness contract is the same bit-identity the rest of the
// repository enforces: the compensated Epanechnikov sweep's accumulator
// state at candidate h depends only on the sample and h — never on
// which other candidates share the grid — so a contiguous sub-grid of
// identical explicit values scores bitwise identically on any replica.
// Merging shard winners with bandwidth.Best's exact comparison rules
// (strict <, NaN skipped, first-shard fallback when every score is
// non-finite) therefore reproduces the single-node answer down to the
// last bit, and the conformance battery holds the coordinator to that.
package coord

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/kernreg"
)

// Defaults for the zero Config fields.
const (
	defaultHedgeMultiplier = 1.5
	defaultHedgeMin        = 25 * time.Millisecond
	defaultHedgeWarmup     = 16
	defaultLoadTTL         = 100 * time.Millisecond
	defaultCooloff         = 2 * time.Second
	loadProbeTimeout       = 250 * time.Millisecond
	latencyRingSize        = 256
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the kernregd replicas. At least one is required.
	Workers []*Worker
	// Shards caps the number of grid shards per job; 0 means one shard
	// per worker. The effective count never exceeds the number of
	// available workers or the grid length.
	Shards int
	// CacheEntries bounds the fingerprint result cache; <= 0 disables
	// caching entirely.
	CacheEntries int
	// HedgeMultiplier scales the observed p95 shard latency into the
	// hedge deadline (0 means 1.5).
	HedgeMultiplier float64
	// HedgeMin floors the hedge deadline (0 means 25ms).
	HedgeMin time.Duration
	// HedgeWarmup is how many shard latencies must be observed before
	// hedging arms (0 means 16; negative arms hedging immediately,
	// with HedgeMin as the deadline until samples accumulate).
	HedgeWarmup int
	// LoadTTL caches /v1/load probes for this long (0 means 100ms).
	LoadTTL time.Duration
	// Cooloff keeps a worker out of placement for this long after a
	// retryable failure (0 means 2s).
	Cooloff time.Duration
}

// Job is one selection request, with the grid held as explicit values:
// sub-range (min, max, k) reconstruction is not bitwise faithful, so
// the full grid is materialised once here and sliced per shard.
type Job struct {
	X, Y []float64
	Grid bandwidth.Grid
	// Method is the worker-side selector, one kernreg reports shardable
	// for Kernel (kernreg.ShardMethod; bit-identity per grid point); ""
	// means kernreg.DefaultMethod.
	Method string
	// Kernel is the kernel name; "" means "epanechnikov".
	Kernel string
	// Stable toggles compensated summation; nil means on.
	Stable *bool
	// KeepScores returns the full concatenated score vector.
	KeepScores bool
}

// Result is a coordinator selection outcome.
type Result struct {
	bandwidth.Result
	// Shards is how many grid shards the job was split into (0 on a
	// cache hit).
	Shards int
	// Hedged is how many shards launched a hedge attempt.
	Hedged int
	// CacheHit reports that the result was replayed from the
	// fingerprint cache without touching any worker.
	CacheHit bool
}

// Coordinator shards selections across worker replicas.
type Coordinator struct {
	cfg     Config
	cache   *resultCache
	metrics *Metrics
	ring    *latencyRing

	mu        sync.Mutex
	coolUntil []time.Time

	loadMu     sync.Mutex
	loadAt     time.Time
	loadDepths []int
}

// New builds a Coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("coord: at least one worker is required")
	}
	for i, w := range cfg.Workers {
		if w == nil {
			return nil, fmt.Errorf("coord: worker %d is nil", i)
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheEntries),
		ring:      newLatencyRing(latencyRingSize),
		coolUntil: make([]time.Time, len(cfg.Workers)),
	}
	c.metrics = newCoordMetrics(c)
	return c, nil
}

// Metrics exposes the coordinator's counters (rendered by /metrics).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Select runs one sharded selection. The result is bit-identical to
// running the same job on a single replica.
//
// Cancellation is polled cooperatively at every stage boundary and on a
// millisecond tick while shards are in flight; a cancelled selection
// returns the zero Result and the context's error, after cancelling
// every outstanding worker attempt.
func (c *Coordinator) Select(ctx context.Context, job Job) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	kernelName := job.Kernel
	if kernelName == "" {
		kernelName = kernel.Epanechnikov.String()
	}
	method, err := kernreg.ShardMethod(job.Method, kernelName)
	if err != nil {
		return Result{}, fmt.Errorf("coord: %w", err)
	}
	if len(job.X) != len(job.Y) {
		return Result{}, fmt.Errorf("coord: X has %d observations, Y has %d", len(job.X), len(job.Y))
	}
	if len(job.X) < 2 {
		return Result{}, fmt.Errorf("coord: need at least 2 observations, have %d", len(job.X))
	}
	if err := job.Grid.Validate(); err != nil {
		return Result{}, err
	}
	c.metrics.IncRequests()
	start := time.Now()
	res, err := c.runSelect(ctx, job, method, kernelName)
	if err != nil {
		return Result{}, err
	}
	// Latency is observed on success only (cache hits included — they
	// are the point); error paths return without an observation.
	c.metrics.Latency["select"].Observe(time.Since(start))
	return res, nil
}

// runSelect is the wall-clock-free core of Select: cache lookup, shard
// planning, dispatch, collection, and merge. Request counting and
// latency timing live in Select, outside the bit-determinism contract,
// so nothing in here can let the clock influence the returned bits.
//
//kernvet:bitexact
func (c *Coordinator) runSelect(ctx context.Context, job Job, method kernreg.Method, kernelName string) (Result, error) {
	stable := job.Stable == nil || *job.Stable
	var key kernreg.Fingerprint
	if c.cache != nil {
		key = kernreg.FingerprintSelect(job.X, job.Y, job.Grid.H, method, kernelName, stable, job.KeepScores)
		if res, ok := c.cache.get(key); ok {
			res.CacheHit = true
			return res, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	assigns := c.plan(ctx, job.Grid.Len())
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	base := serve.ShardRequest{
		XB64:       wire.EncodeFloat64s(job.X),
		YB64:       wire.EncodeFloat64s(job.Y),
		Method:     method.String(),
		Kernel:     job.Kernel,
		Stable:     job.Stable,
		KeepScores: job.KeepScores,
	}
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	outcomes := make(chan shardOutcome, len(assigns))
	for si, a := range assigns {
		req := base
		req.GridB64 = wire.EncodeFloat64s(job.Grid.H[a.lo:a.hi])
		req.Offset = a.lo
		go c.runShard(sctx, si, req, a.workers, outcomes)
	}

	shards := make([]serve.ShardResponse, len(assigns))
	hedged := 0
	var firstErr error
	pending := len(assigns)
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for pending > 0 {
		select {
		case o := <-outcomes:
			pending--
			if o.err != nil {
				if firstErr == nil {
					firstErr = o.err
					scancel()
				}
			} else {
				shards[o.idx] = o.resp
				if o.hedged {
					hedged++
				}
			}
		case <-ticker.C:
			if err := ctx.Err(); err != nil {
				scancel()
				return Result{}, err
			}
		}
	}
	// The guaranteed post-flight poll: on a small job every shard can
	// complete before the first tick, so cancellation must be observed
	// here even when no ticker poll ever ran.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if firstErr != nil {
		c.metrics.IncFailures()
		return Result{}, firstErr
	}

	res, err := mergeShards(job, assigns, shards)
	if err != nil {
		c.metrics.IncFailures()
		return Result{}, err
	}
	res.Shards = len(assigns)
	res.Hedged = hedged
	if c.cache != nil {
		c.cache.put(key, res)
	}
	return res, nil
}

// mergeShards folds per-shard winners into the global result with
// exactly bandwidth.Best's rules: strict < over non-NaN shard CVs in
// ascending shard (= grid) order, falling back to the first shard's
// local result — which sits at global index 0 — when nothing finite
// beats +Inf. Global index = shard offset + local index.
//
//kernvet:bitexact
func mergeShards(job Job, assigns []shardAssign, shards []serve.ShardResponse) (Result, error) {
	type shardVal struct {
		h, cv  float64
		index  int
		scores []float64
	}
	vals := make([]shardVal, len(shards))
	for i, sh := range shards {
		h, err := wire.ParseBits(sh.HBits)
		if err != nil {
			return Result{}, fmt.Errorf("coord: shard %d h_bits: %w", i, err)
		}
		cv, err := wire.ParseBits(sh.CVBits)
		if err != nil {
			return Result{}, fmt.Errorf("coord: shard %d cv_bits: %w", i, err)
		}
		want := assigns[i].hi - assigns[i].lo
		if sh.Index < 0 || sh.Index >= want {
			return Result{}, fmt.Errorf("coord: shard %d index %d outside its %d-point grid", i, sh.Index, want)
		}
		if sh.Offset != assigns[i].lo {
			return Result{}, fmt.Errorf("coord: shard %d echoed offset %d, want %d", i, sh.Offset, assigns[i].lo)
		}
		vals[i] = shardVal{h: h, cv: cv, index: sh.Index}
		if job.KeepScores {
			scores, err := wire.DecodeFloat64s(sh.ScoresB64)
			if err != nil {
				return Result{}, fmt.Errorf("coord: shard %d scores_b64: %w", i, err)
			}
			if len(scores) != want {
				return Result{}, fmt.Errorf("coord: shard %d returned %d scores for a %d-point grid", i, len(scores), want)
			}
			vals[i].scores = scores
		}
	}
	best := -1
	bv := math.Inf(1)
	for i, v := range vals {
		if !math.IsNaN(v.cv) && v.cv < bv {
			best, bv = i, v.cv
		}
	}
	if best < 0 { // every shard degenerate: adopt shard 0's local fallback
		best, bv = 0, vals[0].cv
	}
	out := Result{Result: bandwidth.Result{
		H:     vals[best].h,
		CV:    bv,
		Index: assigns[best].lo + vals[best].index,
	}}
	if job.KeepScores {
		scores := make([]float64, 0, job.Grid.Len())
		for _, v := range vals {
			scores = append(scores, v.scores...)
		}
		out.Scores = scores
	}
	return out, nil
}

// shardAssign is one contiguous grid range and its worker preference
// order (primary first).
type shardAssign struct {
	lo, hi  int
	workers []int
}

// plan splits a k-point grid into shards placed by queue depth: each
// available worker is probed (or read from the TTL'd load cache), and
// shard sizes follow weights 1/(1+depth) via largest-remainder
// apportionment with a one-point floor, so a busy replica receives
// proportionally less of the grid — the admission queue is the
// backpressure signal, not a guess.
func (c *Coordinator) plan(ctx context.Context, k int) []shardAssign {
	depths := c.depths(ctx)
	now := time.Now()
	c.mu.Lock()
	var avail []int
	for i, d := range depths {
		if d >= 0 && !now.Before(c.coolUntil[i]) {
			avail = append(avail, i)
		}
	}
	c.mu.Unlock()
	if len(avail) == 0 {
		// Everyone is cooling or unreachable: placement must still make
		// progress, so fall back to the full roster and let per-shard
		// failover sort the sheep from the goats.
		avail = make([]int, len(c.cfg.Workers))
		for i := range avail {
			avail[i] = i
			if depths[i] < 0 {
				depths[i] = 0
			}
		}
	}
	// Least-loaded first; index breaks ties deterministically.
	sort.SliceStable(avail, func(a, b int) bool {
		if depths[avail[a]] != depths[avail[b]] {
			return depths[avail[a]] < depths[avail[b]]
		}
		return avail[a] < avail[b]
	})
	s := c.cfg.Shards
	if s <= 0 {
		s = len(c.cfg.Workers)
	}
	if s > len(avail) {
		s = len(avail)
	}
	if s > k {
		s = k
	}
	if s < 1 {
		s = 1
	}
	chosen := avail[:s]
	sizes := apportion(k, chosen, depths)
	assigns := make([]shardAssign, s)
	lo := 0
	for i, wi := range chosen {
		// Failover preference: the other chosen workers (already sorted
		// by load), then the rest of the roster.
		order := []int{wi}
		for _, o := range chosen {
			if o != wi {
				order = append(order, o)
			}
		}
		for o := range c.cfg.Workers {
			if !contains(order, o) {
				order = append(order, o)
			}
		}
		assigns[i] = shardAssign{lo: lo, hi: lo + sizes[i], workers: order}
		lo += sizes[i]
	}
	return assigns
}

// apportion splits k grid points over the chosen workers with weights
// 1/(1+depth), largest-remainder rounding, and a floor of one point
// per shard. Deterministic: remainder ties break to the lower slot.
func apportion(k int, chosen []int, depths []int) []int {
	s := len(chosen)
	sizes := make([]int, s)
	weights := make([]float64, s)
	var sum float64
	for i, wi := range chosen {
		weights[i] = 1.0 / (1.0 + float64(depths[wi]))
		sum += weights[i]
	}
	fracs := make([]float64, s)
	assigned := 0
	for i := range sizes {
		exact := float64(k) * weights[i] / sum
		sizes[i] = int(exact)
		fracs[i] = exact - float64(sizes[i])
		assigned += sizes[i]
	}
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for left, j := k-assigned, 0; left > 0; left-- {
		sizes[order[j%s]]++
		j++
	}
	// Enforce the one-point floor by taking from the largest shard; the
	// caller guarantees s <= k, so this always terminates.
	for i := range sizes {
		for sizes[i] == 0 {
			big := 0
			for j := range sizes {
				if sizes[j] > sizes[big] {
					big = j
				}
			}
			sizes[big]--
			sizes[i]++
		}
	}
	return sizes
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// depths returns each worker's queue depth (-1 = unreachable or
// draining), from the TTL'd load cache or a fresh concurrent probe.
func (c *Coordinator) depths(ctx context.Context) []int {
	ttl := c.cfg.LoadTTL
	if ttl <= 0 {
		ttl = defaultLoadTTL
	}
	c.loadMu.Lock()
	if c.loadDepths != nil && time.Since(c.loadAt) < ttl {
		d := append([]int(nil), c.loadDepths...)
		c.loadMu.Unlock()
		return d
	}
	c.loadMu.Unlock()
	res := make([]int, len(c.cfg.Workers))
	var wg sync.WaitGroup
	for i, w := range c.cfg.Workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			lctx, cancel := context.WithTimeout(ctx, loadProbeTimeout)
			defer cancel()
			lr, err := w.Load(lctx)
			if err != nil || lr.Draining {
				res[i] = -1
				return
			}
			res[i] = lr.QueueDepth
		}(i, w)
	}
	wg.Wait()
	c.loadMu.Lock()
	c.loadDepths = append([]int(nil), res...)
	c.loadAt = time.Now()
	c.loadMu.Unlock()
	return res
}

// markCool benches a worker after a retryable failure.
func (c *Coordinator) markCool(wi int) {
	cool := c.cfg.Cooloff
	if cool <= 0 {
		cool = defaultCooloff
	}
	c.mu.Lock()
	c.coolUntil[wi] = time.Now().Add(cool)
	c.mu.Unlock()
}

// hedgeDelay returns the current hedge deadline, or ok=false while the
// latency ring is still warming up.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	warm := c.cfg.HedgeWarmup
	if warm == 0 {
		warm = defaultHedgeWarmup
	}
	if warm > 0 && c.ring.count() < warm {
		return 0, false
	}
	mult := c.cfg.HedgeMultiplier
	if mult <= 0 {
		mult = defaultHedgeMultiplier
	}
	d := time.Duration(float64(c.ring.quantile(0.95)) * mult)
	min := c.cfg.HedgeMin
	if min <= 0 {
		min = defaultHedgeMin
	}
	if d < min {
		d = min
	}
	return d, true
}

// shardOutcome is a supervisor's single verdict for its shard.
type shardOutcome struct {
	idx    int
	resp   serve.ShardResponse
	err    error
	hedged bool
}

type attemptResult struct {
	worker int
	resp   serve.ShardResponse
	err    error
}

// runShard supervises one shard: primary attempt, a hedge onto the
// next-preferred replica once the p95-derived deadline passes, and
// failover (with cooloff) on retryable errors. The first success wins;
// every other in-flight attempt is cancelled, and any attempt that
// still completes afterwards is drained and counted as hedge_late —
// never merged.
func (c *Coordinator) runShard(ctx context.Context, idx int, req serve.ShardRequest, workers []int, out chan<- shardOutcome) {
	attemptC := make(chan attemptResult, len(c.cfg.Workers)+1)
	cancels := make([]context.CancelFunc, 0, 2)
	tried := make(map[int]bool, len(workers))
	inflight := 0
	launch := func(wi int) {
		tried[wi] = true
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		inflight++
		go func() {
			start := time.Now()
			resp, err := c.cfg.Workers[wi].Shard(actx, req)
			if err == nil {
				c.ring.observe(time.Since(start))
			}
			attemptC <- attemptResult{worker: wi, resp: resp, err: err}
		}()
	}
	nextUntried := func() (int, bool) {
		for _, wi := range workers {
			if !tried[wi] {
				return wi, true
			}
		}
		return 0, false
	}
	finish := func(o shardOutcome) {
		for _, cf := range cancels {
			cf()
		}
		out <- o
		// Drain the losers so their goroutines and contexts are fully
		// retired before the supervisor exits; a loser that managed to
		// finish anyway is the "late duplicate" — counted, discarded.
		for inflight > 0 {
			ar := <-attemptC
			inflight--
			if ar.err == nil {
				c.metrics.IncHedgeLate()
			}
		}
	}

	launch(workers[0])
	var hedgeC <-chan time.Time
	if d, ok := c.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	hedged := false
	var lastErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if wi, ok := nextUntried(); ok {
				hedged = true
				c.metrics.IncHedges()
				launch(wi)
			}
		case ar := <-attemptC:
			inflight--
			if ar.err == nil {
				finish(shardOutcome{idx: idx, resp: ar.resp, hedged: hedged})
				return
			}
			lastErr = ar.err
			if ctx.Err() != nil {
				finish(shardOutcome{idx: idx, err: ctx.Err(), hedged: hedged})
				return
			}
			if retryable(ar.err) {
				c.markCool(ar.worker)
				c.metrics.IncFailovers()
				if wi, ok := nextUntried(); ok {
					launch(wi)
					continue
				}
			}
			if inflight == 0 {
				finish(shardOutcome{idx: idx, err: lastErr, hedged: hedged})
				return
			}
		}
	}
}

// latencyRing is a fixed-size ring of recent shard latencies feeding
// the hedge deadline's p95.
type latencyRing struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int
	idx int
}

func newLatencyRing(size int) *latencyRing {
	return &latencyRing{buf: make([]time.Duration, size)}
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % len(r.buf)
	r.n++
	r.mu.Unlock()
}

func (r *latencyRing) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// quantile returns the q-quantile of the retained window (0 if empty).
func (r *latencyRing) quantile(q float64) time.Duration {
	r.mu.Lock()
	m := r.n
	if m > len(r.buf) {
		m = len(r.buf)
	}
	window := append([]time.Duration(nil), r.buf[:m]...)
	r.mu.Unlock()
	if m == 0 {
		return 0
	}
	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	i := int(math.Ceil(q*float64(m))) - 1
	if i < 0 {
		i = 0
	}
	if i >= m {
		i = m - 1
	}
	return window[i]
}
