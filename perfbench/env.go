package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/serve"
)

// env is one set-up workload: its inputs and the servers under test,
// listening on loopback.
type env struct {
	w    *workload
	tr   *tracer
	base string

	hs    *http.Server
	serve chan error

	// node is kernregd for select-exact and bulk-ingest; replicas and
	// coord form the kerncoord cluster for cluster-replay.
	node     *serve.Server
	replicas []*serve.Server
	coord    *coord.Coordinator

	client *http.Client
	// fresh holds each client's pre-built unique inputs per class;
	// lateBuilt counts those built during the load past a pool's end.
	fresh     []map[string][]*job
	lateBuilt atomic.Int64
}

// clusterReplicas and the coordinator settings mirror a kerncoord
// started with its flag defaults over three one-worker kernregd
// replicas.
const (
	clusterReplicas   = 3
	coordCacheEntries = 1024
	coordTimeout      = 60 * time.Second
)

// setupTimes is one setup's duration, in seconds, split by part.
type setupTimes struct {
	// Inputs is data generation and body marshalling, of the hot and
	// the pre-built fresh inputs.
	Inputs float64 `json:"inputs_s"`
	// References is the hot inputs' reference answers.
	References float64 `json:"references_s"`
	// Servers is starting the servers and the listener.
	Servers float64 `json:"servers_s"`
	// CacheWarm is sending each hot job to the coordinator once.
	CacheWarm float64 `json:"cache_warm_s"`
	Total     float64 `json:"total_s"`
}

// setUp builds the workload's hot inputs and freshPerClass unique
// inputs per fresh class for each client, computes the hot inputs'
// reference answers, starts the servers and warms the coordinator cache
// with the hot jobs. It times each part.
func setUp(ctx context.Context, name string, seed uint64, freshPerClass int) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	lap := func(part *float64) {
		now := time.Now()
		*part += now.Sub(t0).Seconds()
		t0 = now
	}
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, st, err
	}
	fresh := make([]map[string][]*job, clients)
	for c := range fresh {
		fresh[c] = map[string][]*job{}
		for _, cl := range w.classes {
			if cl.fresh == nil {
				continue
			}
			for i := 0; i < freshPerClass; i++ {
				j, err := cl.fresh(c, i)
				if err != nil {
					return nil, st, err
				}
				fresh[c][cl.name] = append(fresh[c][cl.name], j)
			}
		}
	}
	lap(&st.Inputs)
	if err := w.computeReferences(ctx); err != nil {
		return nil, st, err
	}
	lap(&st.References)
	e, err := start(w)
	if err != nil {
		return nil, st, err
	}
	e.fresh = fresh
	lap(&st.Servers)
	if err := e.warmCache(ctx); err != nil {
		e.close()
		return nil, st, err
	}
	lap(&st.CacheWarm)
	st.Total = st.Inputs + st.References + st.Servers + st.CacheWarm
	return e, st, nil
}

// start starts w's servers on loopback.
func start(w *workload) (*env, error) {
	var err error
	e := &env{w: w, tr: newTracer(), serve: make(chan error, 1), fresh: make([]map[string][]*job, clients)}
	for c := range e.fresh {
		e.fresh[c] = map[string][]*job{}
	}
	var h http.Handler
	if w.cluster {
		var workers []*coord.Worker
		for i := 0; i < clusterReplicas; i++ {
			label := fmt.Sprintf("replica-%d", i)
			r := serve.New(serve.Config{Workers: 1, WorkerLabel: label})
			e.replicas = append(e.replicas, r)
			workers = append(workers, coord.InProcess(label, e.tr.replica(r.Handler())))
		}
		e.coord, err = coord.New(coord.Config{Workers: workers, CacheEntries: coordCacheEntries})
		if err != nil {
			e.close()
			return nil, err
		}
		h = e.tr.edge("coord.handler", coord.NewServer(e.coord, coord.ServerConfig{Timeout: coordTimeout}))
	} else {
		e.node = serve.New(serve.Config{})
		h = e.tr.edge("serve.handler", e.node.Handler())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { e.serve <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return e, nil
}

// warmCache sends each hot job of a cluster workload once, so that the
// coordinator's cache holds it.
func (e *env) warmCache(ctx context.Context) error {
	if !e.w.cluster {
		return nil
	}
	for _, c := range e.w.classes {
		for _, j := range c.hot {
			if r := e.do(ctx, j); !r.ok {
				err := r.err
				if err == nil {
					err = fmt.Errorf("status %d or a wrong answer", r.status)
				}
				return fmt.Errorf("warming the coordinator cache with %s: %w", j.class, err)
			}
		}
	}
	return nil
}

// servers returns the kernregd instances doing the work: the node, or
// the replicas.
func (e *env) servers() []*serve.Server {
	if e.node != nil {
		return []*serve.Server{e.node}
	}
	return e.replicas
}

// coordCounters is the part of kerncoord's GET /metrics the benchmark
// reads.
type coordCounters struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Hedge struct {
		Launched      int64 `json:"launched"`
		LateDiscarded int64 `json:"late_discarded"`
	} `json:"hedge"`
	Failovers int64 `json:"failovers"`
}

// add adds the change from before to after to c.
func (c *coordCounters) add(before, after coordCounters) {
	c.Cache.Hits += after.Cache.Hits - before.Cache.Hits
	c.Cache.Misses += after.Cache.Misses - before.Cache.Misses
	c.Hedge.Launched += after.Hedge.Launched - before.Hedge.Launched
	c.Hedge.LateDiscarded += after.Hedge.LateDiscarded - before.Hedge.LateDiscarded
	c.Failovers += after.Failovers - before.Failovers
}

func (e *env) coordMetrics(ctx context.Context) (coordCounters, error) {
	var out coordCounters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/metrics", nil)
	if err != nil {
		return out, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("coordinator /metrics: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// queueSampler polls each server's admission-queue depth every
// millisecond while on is set, until stopped.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	// sums and samples are written by the sampling goroutine and read
	// after done is closed.
	sums    []float64
	samples int
}

func startQueueSampler(servers []*serve.Server, on *atomic.Bool) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{}), sums: make([]float64, len(servers))}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				if !on.Load() {
					continue
				}
				for i, s := range servers {
					q.sums[i] += float64(s.Metrics().QueueDepth())
				}
				q.samples++
			}
		}
	}()
	return q
}

// finish stops the sampler and returns each server's mean queue depth.
func (q *queueSampler) finish() []float64 {
	close(q.stop)
	<-q.done
	out := make([]float64, len(q.sums))
	for i, s := range q.sums {
		out[i] = ratio(s, float64(q.samples))
	}
	return out
}

// close stops the listener and drains every server.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if e.hs != nil {
		errs = append(errs, e.hs.Shutdown(ctx))
		if err := <-e.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, s := range e.servers() {
		errs = append(errs, s.Drain(ctx))
	}
	return errors.Join(errs...)
}
