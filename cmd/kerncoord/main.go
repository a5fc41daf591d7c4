// Command kerncoord is the cluster coordinator for kernregd: it shards
// each /v1/select grid across worker replicas by queue depth, hedges
// straggling shards onto a second replica, and caches results keyed by
// a canonical fingerprint of the job. Sharded answers are bit-identical
// to a single replica's (enforced by internal/conformance).
//
// Usage:
//
//	kerncoord -addr :9090 -replicas http://w0:8080,http://w1:8080,http://w2:8080
//
// Endpoints: POST /v1/select (kernregd-compatible, shardable float64
// methods only), GET /healthz, GET /metrics (cache hit/miss/eviction,
// hedge and failover counters). On SIGTERM or SIGINT the listener
// shuts down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":9090", "listen address")
		replicas     = flag.String("replicas", "", "comma-separated kernregd base URLs (required)")
		shards       = flag.Int("shards", 0, "max grid shards per job (0 = one per replica)")
		cacheEntries = flag.Int("cache-entries", 1024, "fingerprint result cache capacity (0 disables)")
		hedgeMin     = flag.Duration("hedge-min", 25*time.Millisecond, "minimum hedge deadline")
		hedgeMult    = flag.Float64("hedge-multiplier", 1.5, "hedge deadline as a multiple of observed p95 shard latency")
		hedgeWarmup  = flag.Int("hedge-warmup", 16, "shard latencies to observe before hedging arms (negative arms immediately)")
		loadTTL      = flag.Duration("load-ttl", 100*time.Millisecond, "queue-depth probe cache TTL")
		cooloff      = flag.Duration("cooloff", 2*time.Second, "bench time for a replica after a retryable failure")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request end-to-end deadline")
		maxN         = flag.Int("max-n", 0, "max observations per request (0 = 200000)")
		maxGrid      = flag.Int("max-grid", 0, "max grid points per request (0 = 4096)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	var workers []*coord.Worker
	for i, u := range strings.Split(*replicas, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		workers = append(workers, coord.NewWorker(fmt.Sprintf("replica-%d", i), u))
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "kerncoord: -replicas is required (comma-separated kernregd base URLs)")
		return 2
	}

	c, err := coord.New(coord.Config{
		Workers:         workers,
		Shards:          *shards,
		CacheEntries:    *cacheEntries,
		HedgeMin:        *hedgeMin,
		HedgeMultiplier: *hedgeMult,
		HedgeWarmup:     *hedgeWarmup,
		LoadTTL:         *loadTTL,
		Cooloff:         *cooloff,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kerncoord: %v\n", err)
		return 1
	}
	srv := coord.NewServer(c, coord.ServerConfig{
		MaxN:    *maxN,
		MaxGrid: *maxGrid,
		Timeout: *timeout,
	})
	hs := serve.NewHTTPServer(*addr, srv)

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "kerncoord: coordinating %d replicas on %s\n", len(workers), *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "kerncoord: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "kerncoord: %v, shutting down\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "kerncoord: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "kerncoord: exiting")
	return 0
}
