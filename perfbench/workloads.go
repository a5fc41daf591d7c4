package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/coord"
	"repro/internal/serve"
	"repro/kernreg"
)

// kind is the endpoint a job is sent to, which fixes how its response
// is decoded and how its reference answer is computed.
type kind int

const (
	kindSelect     kind = iota // kernregd POST /v1/select
	kindFitPredict             // kernregd POST /v1/fit-predict
	kindCoord                  // kerncoord POST /v1/select
)

func (k kind) path() string {
	if k == kindFitPredict {
		return "/v1/fit-predict"
	}
	return "/v1/select"
}

// answer is a response reduced to the bit patterns that must equal the
// reference: [bandwidth, cv, index, bag_cv_variance] for a selection,
// [bandwidth, prediction...] for a fit-predict.
type answer []uint64

// nullBits stands for a JSON null, which the servers send for a
// non-finite value, on both sides of the comparison.
const nullBits uint64 = 0x7ff8_0000_0000_0001

func bitsOf(v float64) uint64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nullBits
	}
	return math.Float64bits(v)
}

func bitsOfPtr(p *float64) uint64 {
	if p == nil {
		return nullBits
	}
	return math.Float64bits(*p)
}

// meta is what a response says about how it was served.
type meta struct {
	elapsedMs float64
	cacheHit  bool
}

// job is one distinct request: its marshalled body, the sample behind
// it, and the in-process reference its response must equal.
type job struct {
	class string
	kind  kind
	n     int
	body  []byte
	x, y  []float64
	// reference computes the answer with the library, in-process.
	reference func(ctx context.Context) (answer, error)
	// want is reference's result once computed (nil before).
	want answer
}

func (j *job) computeReference(ctx context.Context) error {
	a, err := j.reference(ctx)
	if err != nil {
		return fmt.Errorf("%s reference: %w", j.class, err)
	}
	j.want = a
	return nil
}

// decode reduces a 200 response body to its answer and metadata.
func (j *job) decode(body []byte) (answer, meta, error) {
	switch j.kind {
	case kindSelect:
		var r serve.SelectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, meta{}, err
		}
		if r.N != j.n {
			return nil, meta{}, fmt.Errorf("response n=%d, sent %d", r.N, j.n)
		}
		a := answer{math.Float64bits(r.Bandwidth), bitsOfPtr(r.CV), uint64(int64(r.Index)), bitsOfPtr(r.BagCVVariance)}
		return a, meta{elapsedMs: r.ElapsedMs}, nil
	case kindFitPredict:
		var r serve.FitPredictResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, meta{}, err
		}
		a := answer{math.Float64bits(r.Bandwidth)}
		for _, p := range r.Predictions {
			a = append(a, bitsOfPtr(p))
		}
		return a, meta{elapsedMs: r.ElapsedMs}, nil
	default:
		var r coord.SelectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, meta{}, err
		}
		if r.N != j.n {
			return nil, meta{}, fmt.Errorf("response n=%d, sent %d", r.N, j.n)
		}
		a := answer{math.Float64bits(r.Bandwidth), bitsOfPtr(r.CV), uint64(int64(r.Index)), nullBits}
		return a, meta{elapsedMs: r.ElapsedMs, cacheHit: r.CacheHit}, nil
	}
}

// selectionAnswer is the reference side of a selection's answer. Only
// kernregd reports bag_cv_variance, and only for "bagged".
func selectionAnswer(s kernreg.Selection, bagged bool) answer {
	v := nullBits
	if bagged {
		v = bitsOf(s.BagCVVariance)
	}
	return answer{bitsOf(s.Bandwidth), bitsOf(s.CV), uint64(int64(s.Index)), v}
}

// newRand returns a generator for one input stream of a seed. The
// stream words name what the stream is for (workload, class, client,
// index), so every input is fixed by the seed alone.
func newRand(seed uint64, stream ...uint64) *rand.Rand {
	s := uint64(0xcbf29ce484222325)
	for _, v := range stream {
		s = (s ^ v) * 0x100000001b3
	}
	return rand.New(rand.NewPCG(seed, s))
}

// dgp draws n observations from the paper's data-generating process:
// X ~ U[0,1], Y = 0.5X + 10X² + u, u ~ U[0, 0.5].
func dgp(r *rand.Rand, n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		v := r.Float64()
		x[i] = v
		y[i] = 0.5*v + 10*v*v + 0.5*r.Float64()
	}
	return x, y
}

// selectJob builds a kernregd /v1/select job. method "" is the
// server's default; bags > 0 makes it a fixed-seed bagged selection.
func selectJob(class string, r *rand.Rand, n int, method string, bags, bagSize int, bagSeed int64) (*job, error) {
	x, y := dgp(r, n)
	req := serve.SelectRequest{X: x, Y: y, Method: method}
	var opts []kernreg.Option
	if method != "" {
		m, err := kernreg.ParseMethod(method)
		if err != nil {
			return nil, err
		}
		opts = append(opts, kernreg.WithMethod(m))
	}
	if bags > 0 {
		req.Bags, req.BagSize, req.Seed = &bags, &bagSize, &bagSeed
		opts = append(opts, kernreg.Bags(bags), kernreg.BagSize(bagSize), kernreg.Seed(bagSeed))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &job{class: class, kind: kindSelect, n: n, body: body, x: x, y: y,
		reference: func(ctx context.Context) (answer, error) {
			s, err := kernreg.SelectBandwidthContext(ctx, x, y, opts...)
			return selectionAnswer(s, bags > 0), err
		}}, nil
}

// fitPredictBandwidth and predictPoints are the fixed fit-predict
// parameters: a given bandwidth, so the request does no selection, and
// 20 evenly spaced interior points.
const fitPredictBandwidth = 0.05

var predictPoints = func() []float64 {
	p := make([]float64, 20)
	for i := range p {
		p[i] = (float64(i) + 0.5) / float64(len(p))
	}
	return p
}()

func fitPredictJob(class string, r *rand.Rand, n int) (*job, error) {
	x, y := dgp(r, n)
	body, err := json.Marshal(serve.FitPredictRequest{X: x, Y: y, Bandwidth: fitPredictBandwidth, Points: predictPoints})
	if err != nil {
		return nil, err
	}
	return &job{class: class, kind: kindFitPredict, n: n, body: body, x: x, y: y,
		reference: func(context.Context) (answer, error) {
			reg, err := kernreg.FitKernel(x, y, fitPredictBandwidth, "epanechnikov")
			if err != nil {
				return nil, err
			}
			a := answer{math.Float64bits(fitPredictBandwidth)}
			for _, p := range reg.PredictGrid(predictPoints) {
				a = append(a, bitsOf(p))
			}
			return a, nil
		}}, nil
}

// coordJob builds a kerncoord /v1/select job; its reference is the
// single-node selection, which the coordinator promises to equal bit
// for bit.
func coordJob(class string, r *rand.Rand, n int, method string, gridSize int) (*job, error) {
	x, y := dgp(r, n)
	body, err := json.Marshal(coord.SelectRequest{X: x, Y: y, Method: method, GridSize: gridSize})
	if err != nil {
		return nil, err
	}
	m, err := kernreg.ParseMethod(method)
	if err != nil {
		return nil, err
	}
	return &job{class: class, kind: kindCoord, n: n, body: body, x: x, y: y,
		reference: func(ctx context.Context) (answer, error) {
			s, err := kernreg.SelectBandwidthContext(ctx, x, y, kernreg.WithMethod(m), kernreg.GridSize(gridSize))
			return selectionAnswer(s, false), err
		}}, nil
}

// class is one request class of a workload.
type class struct {
	name string
	// weight is the class's requests per cycle of the client sequence.
	weight int
	// hot inputs are shared by all clients; their references are
	// computed during setup.
	hot []*job
	// fresh builds client c's i-th input of the class, used once (a
	// coordinator cache miss). Its reference is computed after the load.
	fresh func(c, i int) (*job, error)
}

// workload is a traffic mix and the server it drives.
type workload struct {
	name    string
	cluster bool
	classes []*class
}

var workloadNames = []string{"select-exact", "bulk-ingest", "cluster-replay"}

// hotInputs is how many distinct inputs each hot class of select-exact
// and bulk-ingest draws from. kernregd keeps no cache, so repeats cost
// the server the same as new inputs and only save reference work.
const hotInputs = 2

// buildWorkload makes a workload's hot inputs from seed; their
// references are computed by computeReferences.
func buildWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name}
	hot := func(cl string, id uint64, count int, mk func(r *rand.Rand, i int) (*job, error)) (*class, error) {
		c := &class{name: cl}
		for i := 0; i < count; i++ {
			j, err := mk(newRand(seed, id, uint64(i)), i)
			if err != nil {
				return nil, err
			}
			c.hot = append(c.hot, j)
		}
		return c, nil
	}
	type spec struct {
		name   string
		weight int
		count  int
		mk     func(r *rand.Rand, i int) (*job, error)
	}
	var specs []spec
	switch name {
	case "select-exact":
		sel := func(cl string, n int, method string) func(*rand.Rand, int) (*job, error) {
			return func(r *rand.Rand, _ int) (*job, error) { return selectJob(cl, r, n, method, 0, 0, 0) }
		}
		specs = []spec{
			{"d500", 4, hotInputs, sel("d500", 500, "")},
			{"tp2000", 2, hotInputs, sel("tp2000", 2000, "twopointer")},
			{"d1000", 3, hotInputs, sel("d1000", 1000, "")},
			{"tp4000", 1, hotInputs, sel("tp4000", 4000, "twopointer")},
		}
	case "bulk-ingest":
		bag := func(cl string, n int) func(*rand.Rand, int) (*job, error) {
			return func(r *rand.Rand, i int) (*job, error) { return selectJob(cl, r, n, "bagged", 4, 1000, int64(i+1)) }
		}
		fp := func(cl string, n int) func(*rand.Rand, int) (*job, error) {
			return func(r *rand.Rand, _ int) (*job, error) { return fitPredictJob(cl, r, n) }
		}
		specs = []spec{
			{"fp50k", 1, hotInputs, fp("fp50k", 50_000)},
			{"bag50k", 1, hotInputs, bag("bag50k", 50_000)},
			{"fp100k", 6, hotInputs, fp("fp100k", 100_000)},
			{"bag100k", 2, hotInputs, bag("bag100k", 100_000)},
		}
	case "cluster-replay":
		w.cluster = true
		specs = []spec{{"hit", 2, 16, func(r *rand.Rand, _ int) (*job, error) { return coordJob("hit", r, 1000, "twopointer", 50) }}}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for ci, s := range specs {
		c, err := hot(s.name, uint64(ci), s.count, s.mk)
		if err != nil {
			return nil, err
		}
		c.weight = s.weight
		w.classes = append(w.classes, c)
	}
	if w.cluster {
		fresh := func(cl string, id uint64, n int, method string, k int) *class {
			return &class{name: cl, weight: 3, fresh: func(c, i int) (*job, error) {
				return coordJob(cl, newRand(seed, id, uint64(c), uint64(i)), n, method, k)
			}}
		}
		w.classes = append(w.classes,
			fresh("miss-naive", 100, 1000, "naive", 20),
			fresh("miss-tp", 101, 2000, "twopointer", 50))
	}
	return w, nil
}

// computeReferences computes the reference answer of every hot input.
func (w *workload) computeReferences(ctx context.Context) error {
	for _, c := range w.classes {
		for _, j := range c.hot {
			if err := j.computeReference(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *workload) class(name string) *class {
	for _, c := range w.classes {
		if c.name == name {
			return c
		}
	}
	return nil
}
