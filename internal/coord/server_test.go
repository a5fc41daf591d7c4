package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

func postSelect(t *testing.T, s *Server, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/select", bytes.NewReader(b))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestServerSelectAndMetrics(t *testing.T) {
	c := testCluster(t, 3, Config{Shards: 3, CacheEntries: 4})
	s := NewServer(c, ServerConfig{})
	x, y := testData(100, 21)
	body := SelectRequest{X: x, Y: y, Method: "twopointer", GridSize: 20, KeepScores: true}

	w := postSelect(t, s, body)
	if w.Code != 200 {
		t.Fatalf("select: %d %s", w.Code, w.Body.String())
	}
	var first SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Shards != 3 || first.N != 100 || len(first.Scores) != 20 {
		t.Fatalf("unexpected first response: %+v", first)
	}

	w = postSelect(t, s, body)
	var second SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("replay was not a cache hit")
	}
	if second.Bandwidth != first.Bandwidth || *second.CV != *first.CV || second.Index != first.Index {
		t.Fatalf("replay differs: %+v vs %+v", second, first)
	}

	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, mreq)
	var metrics struct {
		Cache struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(mw.Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, mw.Body.String())
	}
	if metrics.Cache.Hits != 1 || metrics.Cache.Misses != 1 || metrics.Cache.Entries != 1 {
		t.Errorf("cache counters %+v, want hits=1 misses=1 entries=1", metrics.Cache)
	}

	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, hreq)
	if hw.Code != 200 {
		t.Errorf("healthz: %d", hw.Code)
	}
}

func TestServerRejects(t *testing.T) {
	c := testCluster(t, 2, Config{})
	s := NewServer(c, ServerConfig{MaxN: 64, MaxGrid: 32})
	x, y := testData(10, 22)
	cases := []struct {
		name string
		body any
		code int
	}{
		{"bad method", SelectRequest{X: x, Y: y, Method: "gpu"}, 400},
		{"mismatch", SelectRequest{X: x, Y: y[:4]}, 400},
		{"tiny", SelectRequest{X: x[:1], Y: y[:1]}, 400},
		{"grid too big", SelectRequest{X: x, Y: y, GridSize: 100}, 413},
		{"negative grid", SelectRequest{X: x, Y: y, GridSize: -1}, 400},
		{"unknown field", map[string]any{"x": x, "y": y, "bogus": 1}, 400},
		{"too many obs", func() SelectRequest { bx, by := testData(100, 23); return SelectRequest{X: bx, Y: by} }(), 413},
		{"bad grid range", SelectRequest{X: x, Y: y, GridMin: 2, GridMax: 1}, 400},
	}
	for _, tc := range cases {
		if w := postSelect(t, s, tc.body); w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
}

// TestServerRejectsRawBodies covers bodies the coordinator used to
// accept: data after the object, a body over the byte limit (64 KiB +
// 32 bytes for each float of x and y at MaxN), and a null element.
func TestServerRejectsRawBodies(t *testing.T) {
	c := testCluster(t, 2, Config{})
	s := NewServer(c, ServerConfig{MaxN: 64})
	x, y := testData(10, 22)
	valid, err := json.Marshal(SelectRequest{X: x, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	over := append(append([]byte{}, valid[:len(valid)-1]...), bytes.Repeat([]byte(" "), 64<<10+32*2*64)...)
	over = append(over, '}')
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"valid", valid, 200},
		{"trailing object", append(append([]byte{}, valid...), `{}`...), 400},
		{"trailing brace", append(append([]byte{}, valid...), '}'), 400},
		{"over the byte limit", over, 413},
		{"null element", []byte(`{"x":[1,null,3],"y":[1,2,3]}`), 400},
		{"upper-case key", []byte(`{"X":[1,2,3],"y":[1,2,3]}`), 400},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/select", bytes.NewReader(tc.body)))
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
}

// TestServerRejectsUnrunnablePairBeforeSharding: a shardable method
// paired with a kernel it cannot run is a 400 from the coordinator
// itself — no worker ever receives a /v1/shard request for it. The
// supported pair at the end proves the counter sees real fan-out.
func TestServerRejectsUnrunnablePairBeforeSharding(t *testing.T) {
	var shards atomic.Int64
	var workers []*Worker
	for i := 0; i < 2; i++ {
		h := serve.New(serve.Config{Workers: 2}).Handler()
		workers = append(workers, InProcess(fmt.Sprintf("w%d", i), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				shards.Add(1)
			}
			h.ServeHTTP(w, r)
		})))
	}
	c, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(c, ServerConfig{})
	x, y := testData(60, 23)
	for _, tc := range []struct{ method, kernel string }{
		{"sorted-parallel", "uniform"},
		{"twopointer-parallel", "uniform"},
		{"window", "gaussian"},
	} {
		w := postSelect(t, s, SelectRequest{X: x, Y: y, Method: tc.method, Kernel: tc.kernel, GridSize: 10})
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s + %s: status %d, want 400: %s", tc.method, tc.kernel, w.Code, w.Body.String())
		}
		if strings.Contains(w.Body.String(), "worker returned") {
			t.Errorf("%s + %s: rejected by a worker, not the coordinator: %s", tc.method, tc.kernel, w.Body.String())
		}
	}
	if n := shards.Load(); n != 0 {
		t.Fatalf("workers received %d /v1/shard requests for unrunnable pairs, want 0", n)
	}
	if w := postSelect(t, s, SelectRequest{X: x, Y: y, Method: "window", Kernel: "uniform", GridSize: 10}); w.Code != http.StatusOK {
		t.Fatalf("window + uniform: status %d: %s", w.Code, w.Body.String())
	}
	if shards.Load() == 0 {
		t.Fatal("a supported pair reached no worker: the shard counter is not wired")
	}
}
