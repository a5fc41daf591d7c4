package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The generator is a closed loop: each client sends its next request
// only after the previous response has been read. Each client walks its
// own seeded sequence: cycles holding every class weight-many times,
// shuffled per cycle, so the class mix is the same in every run.

// record is one request as the client saw it.
type record struct {
	reqID int64
	job   *job
	// start and end bracket the request from the first request byte to
	// the last response byte, in tracer time.
	start, end int64
	status     int
	err        error
	got        answer
	meta       meta
	ok         bool
	// inWindow is set when the request ended inside its phase; only
	// those count towards throughput and latency.
	inWindow bool
}

func (r *record) ms() float64 { return float64(r.end-r.start) / 1e6 }

// check compares the answer with the job's reference, once known.
func (r *record) check() {
	r.ok = r.err == nil && r.status == http.StatusOK && slices.Equal(r.got, r.job.want)
	// A request sent as a coordinator cache miss must not be answered
	// from the cache: its input was never sent before.
	if r.ok && r.job.kind == kindCoord && r.job.class != "hit" && r.meta.cacheHit {
		r.ok = false
	}
}

// clientSeq is one client's request sequence.
type clientSeq struct {
	c     int
	r     *rand.Rand
	cycle []*class
	pos   int
	used  map[string]int
}

func newClientSeqs(w *workload, seed uint64) []*clientSeq {
	seqs := make([]*clientSeq, clients)
	for c := range seqs {
		s := &clientSeq{c: c, r: newRand(seed, 0xc11e47, uint64(c)), used: map[string]int{}}
		for _, cl := range w.classes {
			for i := 0; i < cl.weight; i++ {
				s.cycle = append(s.cycle, cl)
			}
		}
		s.pos = len(s.cycle)
		seqs[c] = s
	}
	return seqs
}

// next returns the client's next job. Fresh inputs come from the
// client's pre-built pool and are built on demand past its end.
func (s *clientSeq) next(e *env) (*job, error) {
	if s.pos == len(s.cycle) {
		s.r.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
		s.pos = 0
	}
	cl := s.cycle[s.pos]
	s.pos++
	if cl.fresh == nil {
		return cl.hot[s.r.IntN(len(cl.hot))], nil
	}
	i := s.used[cl.name]
	s.used[cl.name]++
	if pool := e.fresh[s.c][cl.name]; i < len(pool) {
		return pool[i], nil
	}
	e.lateBuilt.Add(1)
	return cl.fresh(s.c, i)
}

// phase is one timed stretch of load, or several pooled.
type phase struct {
	dur  time.Duration
	recs []*record
	// allocBytes is what the whole process allocated while the phase's
	// requests ran.
	allocBytes uint64
}

// pool joins phases into one whose duration, requests and
// allocations are their sums.
func pool(ps []*phase) *phase {
	out := &phase{}
	for _, p := range ps {
		out.dur += p.dur
		out.recs = append(out.recs, p.recs...)
		out.allocBytes += p.allocBytes
	}
	return out
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// run drives the closed loop for d. Requests in flight at the deadline
// complete and are checked, but only those that ended by the deadline
// count towards throughput and latency.
func (e *env) run(ctx context.Context, seqs []*clientSeq, d time.Duration) (*phase, error) {
	p := &phase{dur: d}
	alloc0 := heapAllocBytes()
	end := e.tr.now() + int64(d)
	out := make([][]*record, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for e.tr.now() < end && ctx.Err() == nil {
				j, err := seqs[c].next(e)
				if err != nil {
					errs[c] = err
					return
				}
				out[c] = append(out[c], e.do(ctx, j))
			}
		}(c)
	}
	wg.Wait()
	p.allocBytes = heapAllocBytes() - alloc0
	for c := range out {
		if errs[c] != nil {
			return nil, errs[c]
		}
		for _, r := range out[c] {
			r.inWindow = r.end <= end
		}
		p.recs = append(p.recs, out[c]...)
	}
	return p, ctx.Err()
}

// do sends one request and records it; the answer is checked now when
// the reference is known, else after the load.
func (e *env) do(ctx context.Context, j *job) *record {
	r := &record{reqID: e.tr.newID(), job: j}
	var body []byte
	r.start, r.end, r.status, body, r.err = e.exchange(ctx, j, r.reqID)
	if r.err == nil && r.status == http.StatusOK {
		r.got, r.meta, r.err = j.decode(body)
	}
	if e.tr.on.Load() {
		e.tr.add(span{ID: r.reqID, Req: r.reqID, Name: "client", Class: j.class, Start: r.start, End: r.end, Status: r.status, Bytes: int64(len(j.body))})
	}
	if j.want != nil {
		r.check()
	}
	return r
}

// exchange sends j's body and reads the whole response, timing the
// exchange in tracer time.
func (e *env) exchange(ctx context.Context, j *job, reqID int64) (start, end int64, status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+j.kind.path(), bytes.NewReader(j.body))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	start = e.tr.now()
	resp, err := e.client.Do(req)
	if err != nil {
		return start, e.tr.now(), 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	end = e.tr.now()
	resp.Body.Close()
	return start, end, resp.StatusCode, body, err
}

// verifyFresh computes the references of the fresh inputs the load
// used, on workers goroutines, and checks their records.
func verifyFresh(ctx context.Context, recs []*record, workers int) error {
	var todo []*record
	for _, r := range recs {
		if r.job.want == nil {
			todo = append(todo, r)
		}
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) || ctx.Err() != nil {
					return
				}
				if err := todo[i].job.computeReference(ctx); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, r := range recs {
		if r.job.want == nil {
			return fmt.Errorf("%s: no reference computed", r.job.class)
		}
		r.check()
	}
	return nil
}
