package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around calls into each
// layer's public surface: the generator's requests, middleware around
// the kernregd and kerncoord handlers and around each replica's
// handler, and direct library calls. Nothing inside the program is
// instrumented. Spans are kept in memory and written out at the end.

// reqHeader carries the generator's request ID, which is also the ID of
// the request's client span.
const reqHeader = "X-Request-Id"

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch on the process's monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
	// Cancelled marks a replica call whose context was cancelled before
	// its handler returned (a hedge loser): its end is not bounded by
	// the coordinator's.
	Cancelled bool `json:"cancelled,omitempty"`
	// Bytes is the request body size seen by the handler.
	Bytes int64 `json:"bytes,omitempty"`
	// Body is a replica's shard response, parsed after the run.
	Body []byte `json:"-"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID returns a fresh span or request ID; both share one sequence.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a new, empty record.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// timeCall records a direct-call span around fn.
func (t *tracer) timeCall(name, class string, fn func() error) (span, error) {
	s := span{ID: t.newID(), Name: name, Class: class, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.add(s)
	return s, err
}

type spanKey struct{}

// statusWriter records the status a handler writes and, when buf is
// set, a copy of the body.
type statusWriter struct {
	http.ResponseWriter
	status int
	buf    *bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.buf != nil {
		w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// edge wraps a front-end handler (kernregd or kerncoord) in a span
// whose parent is the client span named by the request header. The
// span is put in the request context, where the coordinator's replica
// calls carry it to the replica middleware.
func (t *tracer) edge(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		s := span{ID: t.newID(), Parent: req, Req: req, Name: name, Start: t.now(), Bytes: r.ContentLength}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		s.End = t.now()
		s.Status = sw.status
		t.add(s)
	})
}

// replica wraps a replica's handler: /v1/shard calls become coord.shard
// spans and /v1/load probes coord.load spans, each parented by the
// coord.handler span found in the request context.
func (t *tracer) replica(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := r.Context().Value(spanKey{}).(span)
		if !t.on.Load() || !ok {
			next.ServeHTTP(w, r)
			return
		}
		name := "coord.load"
		sw := &statusWriter{ResponseWriter: w}
		if r.URL.Path == "/v1/shard" {
			name = "coord.shard"
			sw.buf = new(bytes.Buffer)
		}
		s := span{ID: t.newID(), Parent: parent.ID, Req: parent.Req, Name: name, Start: t.now(), Bytes: r.ContentLength}
		next.ServeHTTP(sw, r)
		s.End = t.now()
		s.Status = sw.status
		s.Cancelled = r.Context().Err() != nil
		if sw.buf != nil {
			s.Body = sw.buf.Bytes()
		}
		t.add(s)
	})
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
