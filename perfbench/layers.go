package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/serve"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"success_rate", "ratio"},
	{"alloc_mb_per_req", "MB"},
	{"setup_s", "s"},
}

// perLayerDefs lists the traced run's metrics. A ".<class>" suffix is a
// per-class value; a layer a workload does not reach reports 0.
var perLayerDefs = func() []metricDef {
	var d []metricDef
	add := func(name, unit string, classes ...string) {
		if len(classes) == 0 {
			d = append(d, metricDef{name, unit})
		}
		for _, c := range classes {
			d = append(d, metricDef{name + "." + c, unit})
		}
	}
	exact := []string{"d500", "tp2000", "d1000", "tp4000"}
	misses := []string{"miss-naive", "miss-tp"}
	add("serve.edge_ms", "ms")
	add("serve.transport_ms", "ms")
	add("serve.req_kb", "KiB")
	add("serve.compute_ms", "ms", append(append(append([]string(nil), exact...), "fp50k", "bag50k", "fp100k", "bag100k"), misses...)...)
	add("serve.queue_wait_ms", "ms")
	add("serve.shed", "count")
	add("serve.rejected", "count")
	add("serve.failures", "count")
	add("kernreg.select_ms", "ms", append(append([]string(nil), exact...), misses...)...)
	add("bandwidth.compute_share", "ratio", exact...)
	add("kernreg.bagged_ms", "ms", "bag50k", "bag100k")
	add("kernreg.fit_ms", "ms")
	add("kernreg.predict_ms", "ms")
	add("bandwidth.pool_hit_ratio", "ratio")
	add("coord.cache_hit_ratio", "ratio")
	add("coord.hit_ms", "ms")
	add("kernreg.fingerprint_ms", "ms")
	add("coord.miss_ms", "ms", misses...)
	add("coord.critical_shard_ms", "ms")
	add("coord.fanout_ms", "ms")
	add("coord.work_ratio", "ratio", misses...)
	add("coord.shards_per_miss", "count")
	add("coord.load_probes_per_miss", "count")
	add("coord.hedges_per_miss", "count")
	add("coord.hedge_late", "count")
	add("coord.failovers", "count")
	add("coord.replica_queue_depth", "count")
	add("wire.encode_ms", "ms")
	add("wire.decode_ms", "ms")
	add("wire.shard_req_kb", "KiB")
	add("trace.overhead", "ratio")
	return d
}()

// serverCounters is a snapshot of one kernregd's serve.Metrics.
type serverCounters struct{ requests, shed, rejected, failures int64 }

func countersOf(s *serve.Server) serverCounters {
	m := s.Metrics()
	return serverCounters{m.Requests.Value(), m.Shed.Value(), m.Rejected.Value(), m.Failures.Value()}
}

// add adds the change from before to after to c.
func (c *serverCounters) add(before, after serverCounters) {
	c.requests += after.requests - before.requests
	c.shed += after.shed - before.shed
	c.rejected += after.rejected - before.rejected
	c.failures += after.failures - before.failures
}

// traceData is everything the traced windows and the direct calls left.
type traceData struct {
	// untraced and traced pool the run's alternating windows.
	untraced, traced *phase
	spans            []span
	// servers, coord and the pool counts are counter changes summed
	// over the traced windows; queueDepth is each server's mean queue
	// depth in them.
	servers              []serverCounters
	coord                coordCounters
	poolHits, poolMisses uint64
	queueDepth           []float64
	// direct holds direct-call times in ms by metric name; jobMs holds
	// the single-node selection time of sampled fresh jobs.
	direct map[string][]float64
	jobMs  map[*job]float64
}

// layerReport is the per-layer metrics plus the span accounting check.
type layerReport struct {
	values map[string]float64
	check  spanCheck
	// queueWaitMs is serve.queue_wait_ms for each server.
	queueWaitMs []float64
}

// spanCheck is the traced run's accounting. Spans must nest: client ⊇
// handler ≥ elapsed_ms, and every replica span that was not cancelled
// lies inside its coord.handler. Nesting is what makes the layer
// self-times add up: on kernregd the self-times client − handler,
// handler − elapsed_ms and elapsed_ms sum to the client span exactly,
// and on a coordinator cache hit client − handler and the handler do.
// On a cache miss the shards run in parallel, so the self-times (the
// handler's net of the union of its replica spans) sum to the client
// span plus the shards' overlap; Parallelism reports that sum over the
// client span. The sum may be at most one client span per replica call
// the coordinator can have in flight: one shard per replica, plus each
// hedged duplicate that finished before it could be cancelled. A miss
// past that bound is a violation.
type spanCheck struct {
	Requests   int      `json:"requests"`
	Violations int      `json:"violations"`
	Examples   []string `json:"examples,omitempty"`
	// Parallelism is the p50 over cache misses, ParallelismMax the
	// largest.
	Parallelism    float64 `json:"parallelism_p50,omitempty"`
	ParallelismMax float64 `json:"parallelism_max,omitempty"`
}

func (c *spanCheck) fail(format string, args ...any) {
	c.Violations++
	if len(c.Examples) < 5 {
		c.Examples = append(c.Examples, fmt.Sprintf(format, args...))
	}
}

func within(child, parent span) bool { return child.Start >= parent.Start && child.End <= parent.End }

// covered is the length in ms of the union of spans' intervals.
func covered(spans []span) float64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].Start < s[b].Start })
	var total, lo, hi int64
	for i, sp := range s {
		switch {
		case i == 0:
			lo, hi = sp.Start, sp.End
		case sp.Start > hi:
			total += hi - lo
			lo, hi = sp.Start, sp.End
		case sp.End > hi:
			hi = sp.End
		}
	}
	if len(s) > 0 {
		total += hi - lo
	}
	return float64(total) / 1e6
}

func rps(p *phase) float64 {
	n := 0
	for _, r := range p.recs {
		if r.ok && r.inWindow {
			n++
		}
	}
	return float64(n) / p.dur.Seconds()
}

// layers computes the per-layer metrics of a traced run.
func layers(w *workload, d *traceData) layerReport {
	rep := layerReport{values: map[string]float64{}}
	v := rep.values
	byReq := map[int64][]span{}
	for _, s := range d.spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var edge, transport, reqBytes, hitMs, critical, fanout, shardsPer, loadsPer, replicaDepth, shardBytes, parallel []float64
	compute := map[string][]float64{}
	missMs := map[string][]float64{}
	workRatio := map[string][]float64{}
	for _, r := range d.traced.recs {
		if !r.ok {
			continue
		}
		var client, handler span
		var children []span
		var shards, liveShards, loads int
		for _, s := range byReq[r.reqID] {
			switch s.Name {
			case "client":
				client = s
			case "serve.handler", "coord.handler":
				handler = s
			case "coord.shard", "coord.load":
				if s.Name == "coord.shard" {
					shards++
					shardBytes = append(shardBytes, float64(s.Bytes))
				} else {
					loads++
				}
				if !s.Cancelled {
					children = append(children, s)
					if s.Name == "coord.shard" {
						liveShards++
					}
				}
			}
		}
		rep.check.Requests++
		if client.ID == 0 || handler.ID == 0 {
			rep.check.fail("request %d: missing client or handler span", r.reqID)
			continue
		}
		if !within(handler, client) {
			rep.check.fail("request %d: %s not inside its client span", r.reqID, handler.Name)
		}
		transport = append(transport, client.ms()-handler.ms())
		reqBytes = append(reqBytes, float64(len(r.job.body)))
		if !w.cluster {
			if handler.ms() < r.meta.elapsedMs {
				rep.check.fail("request %d: serve.handler %.3f ms < elapsed_ms %.3f", r.reqID, handler.ms(), r.meta.elapsedMs)
			}
			edge = append(edge, handler.ms()-r.meta.elapsedMs)
			compute[r.job.class] = append(compute[r.job.class], r.meta.elapsedMs)
			continue
		}
		if r.meta.cacheHit {
			hitMs = append(hitMs, handler.ms())
			continue
		}
		missMs[r.job.class] = append(missMs[r.job.class], handler.ms())
		var slowest, sumElapsed float64
		self := (client.ms() - handler.ms()) + (handler.ms() - covered(children))
		for _, s := range children {
			if !within(s, handler) {
				rep.check.fail("request %d: %s not inside coord.handler", r.reqID, s.Name)
			}
			self += s.ms()
			var sr serve.ShardResponse
			if s.Status != 200 || json.Unmarshal(s.Body, &sr) != nil {
				continue
			}
			slowest = max(slowest, s.ms())
			sumElapsed += sr.ElapsedMs
			edge = append(edge, s.ms()-sr.ElapsedMs)
			compute[r.job.class] = append(compute[r.job.class], sr.ElapsedMs)
			replicaDepth = append(replicaDepth, float64(sr.QueueDepth))
		}
		parallel = append(parallel, self/client.ms())
		if bound := max(clusterReplicas, liveShards); self > float64(bound)*client.ms() {
			rep.check.fail("request %d: layer self-times sum to %.2f client spans, over the bound of %d", r.reqID, self/client.ms(), bound)
		}
		critical = append(critical, slowest)
		fanout = append(fanout, handler.ms()-slowest)
		shardsPer = append(shardsPer, float64(shards))
		loadsPer = append(loadsPer, float64(loads))
		if ms, ok := d.jobMs[r.job]; ok {
			workRatio[r.job.class] = append(workRatio[r.job.class], sumElapsed/ms)
		}
	}
	rep.check.Parallelism = p50(parallel)
	if len(parallel) > 0 {
		rep.check.ParallelismMax = slices.Max(parallel)
	}

	v["serve.edge_ms"] = p50(edge)
	v["serve.transport_ms"] = p50(transport)
	v["serve.req_kb"] = mean(reqBytes) / 1024
	for c, xs := range compute {
		v["serve.compute_ms."+c] = p50(xs)
	}
	for i, c := range d.servers {
		// Little's law: mean queue length over completion rate.
		wait := ratio(d.queueDepth[i], float64(c.requests-c.shed)/(1e3*d.traced.dur.Seconds()))
		rep.queueWaitMs = append(rep.queueWaitMs, wait)
		v["serve.shed"] += float64(c.shed)
		v["serve.rejected"] += float64(c.rejected)
		v["serve.failures"] += float64(c.failures)
	}
	v["serve.queue_wait_ms"] = mean(rep.queueWaitMs)
	for name, xs := range d.direct {
		v[name] = p50(xs)
	}
	for _, c := range []string{"d500", "tp2000", "d1000", "tp4000"} {
		if w.class(c) != nil {
			v["bandwidth.compute_share."+c] = ratio(v["kernreg.select_ms."+c], v["serve.compute_ms."+c])
		}
	}
	v["bandwidth.pool_hit_ratio"] = ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses))
	if w.cluster {
		hits, misses := float64(d.coord.Cache.Hits), float64(d.coord.Cache.Misses)
		v["coord.cache_hit_ratio"] = ratio(hits, hits+misses)
		v["coord.hit_ms"] = p50(hitMs)
		for c, xs := range missMs {
			v["coord.miss_ms."+c] = p50(xs)
		}
		v["coord.critical_shard_ms"] = p50(critical)
		v["coord.fanout_ms"] = p50(fanout)
		for c, xs := range workRatio {
			v["coord.work_ratio."+c] = p50(xs)
		}
		v["coord.shards_per_miss"] = mean(shardsPer)
		v["coord.load_probes_per_miss"] = mean(loadsPer)
		v["coord.hedges_per_miss"] = ratio(float64(d.coord.Hedge.Launched), misses)
		v["coord.hedge_late"] = float64(d.coord.Hedge.LateDiscarded)
		v["coord.failovers"] = float64(d.coord.Failovers)
		v["coord.replica_queue_depth"] = mean(replicaDepth)
		v["wire.shard_req_kb"] = mean(shardBytes) / 1024
	}
	v["trace.overhead"] = ratio(rps(d.untraced)-rps(d.traced), rps(d.untraced))
	return rep
}
