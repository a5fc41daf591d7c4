package conformance

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/coord"
	"repro/internal/serve"
)

// The coordinator's conformance adapter: every corpus dataset runs
// through a real 3-replica in-process cluster, grid-sharded, and the
// merged answer is held to the Exact-class policy against the naive
// oracle — the tentpole bit-identity claim, enforced on the same
// adversarial corpus as every single-node selector.
//
// Two deliberate choices:
//
//   - One shared cluster, built lazily: the engine and the race tests
//     call Run concurrently, and the coordinator is a server-shaped
//     object meant to be shared — spawning three replicas per corpus
//     cell would test construction, not coordination.
//   - The cache is DISABLED. The cancellation conformance tests count
//     the cooperative ctx polls a selection performs before reporting
//     context.Canceled; a warm cache would answer after the entry poll
//     alone and mask the dispatch path those tests exist to probe. The
//     cache has its own battery in internal/coord and cmd/bwbench.
var (
	coordOnce   sync.Once
	coordShared *coord.Coordinator
	coordErr    error
)

func sharedCoordinator() (*coord.Coordinator, error) {
	coordOnce.Do(func() {
		var workers []*coord.Worker
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("conf%d", i)
			// Deep queues: the conformance race engine fires many
			// selections at once, and a 429 here would turn an admission
			// artifact into a spurious conformance failure.
			srv := serve.New(serve.Config{Workers: 4, QueueDepth: 256, WorkerLabel: name})
			workers = append(workers, coord.InProcess(name, srv.Handler()))
		}
		coordShared, coordErr = coord.New(coord.Config{Workers: workers, Shards: 3})
	})
	return coordShared, coordErr
}

// runCoordSharded adapts the coordinator running one shardable method
// to the Selector interface, passing ctx straight through per the
// registry contract.
func runCoordSharded(method string) func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
	return func(ctx context.Context, x, y []float64, g bandwidth.Grid) (bandwidth.Result, error) {
		c, err := sharedCoordinator()
		if err != nil {
			return bandwidth.Result{}, err
		}
		res, err := c.Select(ctx, coord.Job{X: x, Y: y, Grid: g, Method: method, KeepScores: true})
		if err != nil {
			return bandwidth.Result{}, err
		}
		return res.Result, nil
	}
}
