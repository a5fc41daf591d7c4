package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// startTiny starts w's servers for a test, warms the coordinator cache
// with w's hot jobs, and stops the servers at the test's end.
func startTiny(t *testing.T, w *workload) *env {
	t.Helper()
	e, err := start(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	if err := e.warmCache(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e
}

// mustJob returns a function that takes what selectJob, fitPredictJob
// or coordJob return and gives the job with its reference computed.
func mustJob(t *testing.T) func(*job, error) *job {
	return func(j *job, err error) *job {
		t.Helper()
		if err == nil {
			err = j.computeReference(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
}

// corrupt makes a fresh job's reference differ in one bit.
func corrupt(j *job) {
	ref := j.reference
	j.reference = func(ctx context.Context) (answer, error) {
		a, err := ref(ctx)
		if err == nil {
			a[0] ^= 1
		}
		return a, err
	}
}

func TestKernregdAnswersMatchReferenceBitForBit(t *testing.T) {
	ctx := context.Background()
	r := newRand(1, 7)
	jobs := []*job{
		mustJob(t)(selectJob("sorted", r, 300, "", 0, 0, 0)),
		mustJob(t)(selectJob("twopointer", r, 300, "twopointer", 0, 0, 0)),
		mustJob(t)(selectJob("bagged", r, 3000, "bagged", 4, 200, 3)),
		mustJob(t)(fitPredictJob("fit-predict", r, 2000)),
	}
	e := startTiny(t, &workload{name: "tiny", classes: []*class{{name: "all", weight: 1, hot: jobs}}})
	for _, j := range jobs {
		if rec := e.do(ctx, j); !rec.ok {
			t.Fatalf("%s: correct answer rejected (status %d, err %v)", j.class, rec.status, rec.err)
		}
		// Every word of the reference is compared: flipping the lowest
		// bit of any one of them must fail the request.
		for i := range j.want {
			j.want[i] ^= 1
			if rec := e.do(ctx, j); rec.ok {
				t.Errorf("%s: reference corrupted in word %d was not caught", j.class, i)
			}
			j.want[i] ^= 1
		}
	}
}

func TestCoordinatorAnswersChecked(t *testing.T) {
	ctx := context.Background()
	hot := mustJob(t)(coordJob("hit", newRand(1, 1), 300, "twopointer", 20))
	w := &workload{name: "tiny", cluster: true, classes: []*class{{name: "hit", weight: 1, hot: []*job{hot}}}}
	e := startTiny(t, w)
	if rec := e.do(ctx, hot); !rec.ok || !rec.meta.cacheHit {
		t.Fatalf("warmed hot job: ok=%v cache_hit=%v err=%v", rec.ok, rec.meta.cacheHit, rec.err)
	}

	good, err := coordJob("miss", newRand(1, 2), 300, "naive", 10)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := coordJob("miss", newRand(1, 3), 300, "naive", 10)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(bad)
	recs := []*record{e.do(ctx, good), e.do(ctx, bad), e.do(ctx, good)}
	if err := verifyFresh(ctx, recs, 2); err != nil {
		t.Fatal(err)
	}
	if !recs[0].ok {
		t.Errorf("first miss rejected: status %d, err %v", recs[0].status, recs[0].err)
	}
	if recs[1].ok {
		t.Error("miss checked against a corrupted reference was accepted")
	}
	// Sent again, the "miss" is answered from the cache: a miss class
	// must never be, so the request fails although the bits match.
	if !recs[2].meta.cacheHit || recs[2].ok {
		t.Errorf("repeated miss: cache_hit=%v ok=%v, want a cache hit that fails", recs[2].meta.cacheHit, recs[2].ok)
	}
}

// tracedLoad runs w traced for d and returns its per-layer report.
func tracedLoad(t *testing.T, w *workload, d time.Duration) layerReport {
	t.Helper()
	ctx := context.Background()
	e := startTiny(t, w)
	e.tr.on.Store(true)
	p, err := e.run(ctx, newClientSeqs(w, 1), d)
	e.tr.on.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFresh(ctx, p.recs, clients); err != nil {
		t.Fatal(err)
	}
	for _, r := range p.recs {
		if !r.ok {
			t.Fatalf("%s request failed: status %d, err %v", r.job.class, r.status, r.err)
		}
	}
	rep := layers(w, &traceData{untraced: p, traced: p, spans: e.tr.take(), direct: map[string][]float64{}})
	if rep.check.Requests == 0 || rep.check.Violations != 0 {
		t.Fatalf("span check: %+v", rep.check)
	}
	return rep
}

func TestTracedKernregdSpansNest(t *testing.T) {
	r := newRand(2, 1)
	w := &workload{name: "tiny", classes: []*class{
		{name: "d500", weight: 1, hot: []*job{mustJob(t)(selectJob("d500", r, 500, "", 0, 0, 0))}},
		{name: "fp50k", weight: 1, hot: []*job{mustJob(t)(fitPredictJob("fp50k", r, 5000))}},
	}}
	rep := tracedLoad(t, w, 300*time.Millisecond)
	for _, m := range []string{"serve.edge_ms", "serve.transport_ms", "serve.compute_ms.d500", "serve.compute_ms.fp50k"} {
		if rep.values[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rep.values[m])
		}
	}
}

func TestTracedClusterSpansNest(t *testing.T) {
	hot := mustJob(t)(coordJob("hit", newRand(3, 1), 300, "twopointer", 20))
	w := &workload{name: "tiny", cluster: true, classes: []*class{
		{name: "hit", weight: 1, hot: []*job{hot}},
		{name: "miss-tp", weight: 1, fresh: func(c, i int) (*job, error) {
			return coordJob("miss-tp", newRand(3, 2, uint64(c), uint64(i)), 400, "twopointer", 20)
		}},
	}}
	rep := tracedLoad(t, w, 300*time.Millisecond)
	// The coordinator carries the request context to each replica, so
	// every miss finds its shards: one per replica, more when hedged.
	if got := rep.values["coord.shards_per_miss"]; got < clusterReplicas {
		t.Errorf("coord.shards_per_miss = %v, want at least %d", got, clusterReplicas)
	}
	for _, m := range []string{"coord.hit_ms", "coord.miss_ms.miss-tp", "coord.critical_shard_ms", "serve.compute_ms.miss-tp", "wire.shard_req_kb"} {
		if rep.values[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rep.values[m])
		}
	}
	if rep.check.Parallelism < 1 {
		t.Errorf("self-times of a miss sum to %.3f of its client span, want at least 1", rep.check.Parallelism)
	}
}

func TestSpanCheckCatchesBadNesting(t *testing.T) {
	rec := &record{reqID: 1, job: &job{class: "c"}, ok: true, inWindow: true, meta: meta{elapsedMs: 5}}
	p := &phase{dur: time.Second, recs: []*record{rec}}
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		name    string
		cluster bool
		spans   []span
	}{
		{"handler ends after client", false, []span{
			{ID: 1, Req: 1, Name: "client", Start: 0, End: 10 * ms},
			{ID: 2, Req: 1, Name: "serve.handler", Start: 1 * ms, End: 11 * ms},
		}},
		{"handler shorter than elapsed_ms", false, []span{
			{ID: 1, Req: 1, Name: "client", Start: 0, End: 10 * ms},
			{ID: 2, Req: 1, Name: "serve.handler", Start: 1 * ms, End: 3 * ms},
		}},
		{"missing handler", false, []span{
			{ID: 1, Req: 1, Name: "client", Start: 0, End: 10 * ms},
		}},
		{"shard outside coord.handler", true, []span{
			{ID: 1, Req: 1, Name: "client", Start: 0, End: 10 * ms},
			{ID: 2, Req: 1, Name: "coord.handler", Start: 1 * ms, End: 9 * ms},
			{ID: 3, Parent: 2, Req: 1, Name: "coord.shard", Start: 2 * ms, End: 9*ms + 1},
		}},
		// Three shards and a load probe in flight for the whole request:
		// the self-times sum to four client spans, over the bound of one
		// per shard.
		{"self-times over the bound", true, []span{
			{ID: 1, Req: 1, Name: "client", Start: 0, End: 10 * ms},
			{ID: 2, Req: 1, Name: "coord.handler", Start: 0, End: 10 * ms},
			{ID: 3, Parent: 2, Req: 1, Name: "coord.shard", Start: 0, End: 10 * ms},
			{ID: 4, Parent: 2, Req: 1, Name: "coord.shard", Start: 0, End: 10 * ms},
			{ID: 5, Parent: 2, Req: 1, Name: "coord.shard", Start: 0, End: 10 * ms},
			{ID: 6, Parent: 2, Req: 1, Name: "coord.load", Start: 0, End: 10 * ms},
		}},
	} {
		rep := layers(&workload{cluster: tc.cluster}, &traceData{untraced: p, traced: p, spans: tc.spans})
		if rep.check.Violations == 0 {
			t.Errorf("%s: not caught", tc.name)
		}
	}
}

func TestCoveredUnionsIntervals(t *testing.T) {
	ms := int64(time.Millisecond)
	got := covered([]span{{Start: 5 * ms, End: 8 * ms}, {Start: 0, End: 2 * ms}, {Start: 1 * ms, End: 3 * ms}, {Start: 7 * ms, End: 9 * ms}})
	if got != 7 {
		t.Errorf("covered = %v ms, want 7", got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, tc := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEndDefs}, {"per_layer", b.PerLayer, perLayerDefs}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.what, len(tc.json), len(tc.defs))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", tc.what, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}
