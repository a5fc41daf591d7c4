package coord

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/kernel"
	"repro/internal/serve"
)

func testData(n int, seed int64) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 10
		y[i] = math.Sin(x[i]) + 0.3*rng.NormFloat64()
	}
	return x, y
}

// testCluster builds a coordinator over n in-process kernregd replicas.
func testCluster(t *testing.T, n int, cfg Config) *Coordinator {
	t.Helper()
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Workers: 2, WorkerLabel: fmt.Sprintf("w%d", i)})
		cfg.Workers = append(cfg.Workers, InProcess(fmt.Sprintf("w%d", i), srv.Handler()))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// single runs the same job on a single node through the bandwidth
// package directly — the reference the coordinator must match bitwise.
func single(t *testing.T, job Job) bandwidth.Result {
	t.Helper()
	st := bandwidth.Compensated
	if job.Stable != nil && !*job.Stable {
		st = bandwidth.Uncompensated
	}
	kern := kernel.Epanechnikov
	if job.Kernel != "" {
		var err error
		kern, err = kernel.Parse(job.Kernel)
		if err != nil {
			t.Fatal(err)
		}
	}
	var (
		res bandwidth.Result
		err error
	)
	ctx := context.Background()
	switch job.Method {
	case "", "window":
		res, err = bandwidth.WindowGridSearch(ctx, job.X, job.Y, job.Grid, kern)
	case "sorted":
		res, err = bandwidth.SortedGridSearch(ctx, job.X, job.Y, job.Grid, kern, st)
	case "twopointer":
		res, err = bandwidth.TwoPointerGridSearch(ctx, job.X, job.Y, job.Grid, kern, st)
	case "naive":
		res, err = bandwidth.NaiveGridSearch(ctx, job.X, job.Y, job.Grid, kern)
	default:
		t.Fatalf("no single-node reference for method %q", job.Method)
	}
	if err != nil {
		t.Fatalf("single-node %q: %v", job.Method, err)
	}
	return res
}

func requireBitEqual(t *testing.T, label string, got Result, want bandwidth.Result, keepScores bool) {
	t.Helper()
	if math.Float64bits(got.H) != math.Float64bits(want.H) {
		t.Errorf("%s: H bits %016x, want %016x", label, math.Float64bits(got.H), math.Float64bits(want.H))
	}
	if math.Float64bits(got.CV) != math.Float64bits(want.CV) {
		t.Errorf("%s: CV bits %016x, want %016x", label, math.Float64bits(got.CV), math.Float64bits(want.CV))
	}
	if got.Index != want.Index {
		t.Errorf("%s: index %d, want %d", label, got.Index, want.Index)
	}
	if keepScores {
		if len(got.Scores) != len(want.Scores) {
			t.Fatalf("%s: %d scores, want %d", label, len(got.Scores), len(want.Scores))
		}
		for i := range want.Scores {
			if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
				t.Errorf("%s: scores[%d] bits %016x, want %016x", label, i, math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
			}
		}
	}
}

// TestSelectBitIdenticalToSingleNode is the tentpole claim: sharding the
// grid across replicas changes not one bit of the answer, for every
// shardable method and shard counts that do not divide the grid evenly.
func TestSelectBitIdenticalToSingleNode(t *testing.T) {
	x, y := testData(200, 1)
	g, err := bandwidth.DefaultGrid(x, 37)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"", "window", "sorted", "twopointer", "naive"} {
		for _, shards := range []int{1, 2, 3} {
			c := testCluster(t, 3, Config{Shards: shards})
			job := Job{X: x, Y: y, Grid: g, Method: method, KeepScores: true}
			want := single(t, job)
			got, err := c.Select(context.Background(), job)
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", method, shards, err)
			}
			if got.Shards != shards {
				t.Errorf("%s: ran %d shards, want %d", method, got.Shards, shards)
			}
			requireBitEqual(t, fmt.Sprintf("%s/shards=%d", method, shards), got, want, true)
		}
	}
}

// TestSelectDegenerateScores drives the merge's non-finite path: a grid
// of bandwidths far too small for the sample spacing scores +Inf
// everywhere, and the sharded fallback must still agree with
// bandwidth.Best's "report the first deterministically" rule bit for bit.
func TestSelectDegenerateScores(t *testing.T) {
	x := []float64{0, 10, 20, 30, 40, 50}
	y := []float64{1, 2, 3, 4, 5, 6}
	g, err := bandwidth.NewGrid(1e-6, 5e-6, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 3, Config{Shards: 3})
	job := Job{X: x, Y: y, Grid: g, Method: "twopointer", KeepScores: true}
	want := single(t, job)
	got, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "degenerate", got, want, true)
	if got.Index != 0 {
		t.Errorf("degenerate selection should fall back to index 0, got %d", got.Index)
	}
}

// TestSelectTiesAcrossShardBoundaries: constant Y scores identically at
// every candidate, so every shard reports a tie winner and the merge
// must keep the global lowest index — which lives in shard 0.
func TestSelectTiesAcrossShardBoundaries(t *testing.T) {
	x, _ := testData(64, 2)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 3.5
	}
	g, err := bandwidth.DefaultGrid(x, 24)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 3, Config{Shards: 3})
	job := Job{X: x, Y: y, Grid: g, Method: "sorted"}
	want := single(t, job)
	got, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "ties", got, want, false)
	if got.Index != want.Index {
		t.Errorf("tie broke to index %d, single-node chose %d", got.Index, want.Index)
	}
}

// TestCacheReplay: the second identical request must come from the
// fingerprint cache, bit-identical, without touching a worker; a one-ULP
// change to the data must miss.
func TestCacheReplay(t *testing.T) {
	x, y := testData(150, 3)
	g, err := bandwidth.DefaultGrid(x, 31)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 3, Config{Shards: 3, CacheEntries: 8})
	job := Job{X: x, Y: y, Grid: g, Method: "twopointer", KeepScores: true}
	first, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	second, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	requireBitEqual(t, "replay", second, first.Result, true)
	hits, misses, _, entries := c.cache.stats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Errorf("cache counters hits=%d misses=%d entries=%d, want 1/1/1", hits, misses, entries)
	}

	// A one-ULP perturbation of a single observation must key differently.
	y2 := append([]float64(nil), y...)
	y2[7] = math.Nextafter(y2[7], math.Inf(1))
	third, err := c.Select(context.Background(), Job{X: x, Y: y2, Grid: g, Method: "twopointer", KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("perturbed data hit the cache")
	}
	// Mutating the caller's copy of a cached result must not poison the
	// cache (deep copies both ways).
	second.Scores[0] = 42
	fourth, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.CacheHit || math.Float64bits(fourth.Scores[0]) != math.Float64bits(first.Scores[0]) {
		t.Error("cache entry was poisoned through a returned slice")
	}
}

func TestCacheEviction(t *testing.T) {
	cache := newResultCache(2)
	mk := func(b byte) (key [32]byte) { key[0] = b; return }
	cache.put(mk(1), Result{Result: bandwidth.Result{H: 1}})
	cache.put(mk(2), Result{Result: bandwidth.Result{H: 2}})
	if _, ok := cache.get(mk(1)); !ok {
		t.Fatal("entry 1 evicted prematurely")
	}
	cache.put(mk(3), Result{Result: bandwidth.Result{H: 3}}) // evicts 2 (LRU)
	if _, ok := cache.get(mk(2)); ok {
		t.Fatal("entry 2 survived past capacity")
	}
	if _, ok := cache.get(mk(1)); !ok {
		t.Fatal("recently used entry 1 was evicted instead of LRU")
	}
	_, _, evictions, entries := cache.stats()
	if evictions != 1 || entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1/2", evictions, entries)
	}
}

func TestSelectPreCancelled(t *testing.T) {
	x, y := testData(50, 4)
	g, err := bandwidth.DefaultGrid(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 2, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Select(ctx, Job{X: x, Y: y, Grid: g, Method: "sorted"})
	if err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
	if res.H != 0 || res.CV != 0 || res.Index != 0 || res.Scores != nil || res.Shards != 0 {
		t.Fatalf("cancelled selection leaked a partial result: %+v", res)
	}
}

func TestSelectRejects(t *testing.T) {
	x, y := testData(50, 5)
	g, _ := bandwidth.DefaultGrid(x, 10)
	c := testCluster(t, 2, Config{})
	cases := []struct {
		name string
		job  Job
	}{
		{"unshardable method", Job{X: x, Y: y, Grid: g, Method: "gpu"}},
		{"bagged method", Job{X: x, Y: y, Grid: g, Method: "bagged"}},
		{"unknown kernel", Job{X: x, Y: y, Grid: g, Kernel: "mystery"}},
		{"length mismatch", Job{X: x, Y: y[:10], Grid: g}},
		{"too few observations", Job{X: x[:1], Y: y[:1], Grid: g}},
		{"empty grid", Job{X: x, Y: y}},
	}
	for _, tc := range cases {
		if _, err := c.Select(context.Background(), tc.job); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestApportion pins the queue-depth weighting: a replica with depth 3
// gets a quarter of the weight of an idle one, and every shard keeps at
// least one grid point.
func TestApportion(t *testing.T) {
	depths := []int{0, 3}
	sizes := apportion(10, []int{0, 1}, depths)
	if sizes[0] != 8 || sizes[1] != 2 {
		t.Errorf("apportion(10, depths 0/3) = %v, want [8 2]", sizes)
	}
	sizes = apportion(3, []int{0, 1, 2}, []int{0, 0, 0})
	if sizes[0]+sizes[1]+sizes[2] != 3 || sizes[0] < 1 || sizes[1] < 1 || sizes[2] < 1 {
		t.Errorf("apportion(3, even) = %v, want one point each", sizes)
	}
	sizes = apportion(5, []int{0, 1}, []int{0, 1000000})
	if sizes[0]+sizes[1] != 5 || sizes[1] < 1 {
		t.Errorf("apportion(5, extreme skew) = %v: floor of one violated", sizes)
	}
}

// TestPlanExcludesUnreachable: a worker whose /v1/load probe fails gets
// no primary shard, but remains in the failover order.
func TestPlanExcludesUnreachable(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	dead := InProcess("dead", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	live := InProcess("live", srv.Handler())
	c, err := New(Config{Workers: []*Worker{dead, live}, LoadTTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	assigns := c.plan(context.Background(), 12)
	for _, a := range assigns {
		if a.workers[0] == 0 {
			t.Fatalf("unreachable worker got a primary shard: %+v", assigns)
		}
	}
	x, y := testData(60, 6)
	g, err := bandwidth.DefaultGrid(x, 12)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{X: x, Y: y, Grid: g, Method: "twopointer"}
	want := single(t, job)
	got, err := c.Select(context.Background(), job)
	if err != nil {
		t.Fatalf("select with one dead replica: %v", err)
	}
	requireBitEqual(t, "dead-replica", got, want, false)
}
