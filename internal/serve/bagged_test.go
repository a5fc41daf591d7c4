package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bandwidth"
	"repro/kernreg"
)

// Serve-layer battery for "method": "bagged" — the JSON surface, the
// exact rejection messages, and the concurrency/cancellation contract
// of the bagged selector running inside the worker pool.

func TestSelectBaggedMatchesDirectCall(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(600, 11)
	bags, bagSize, seed := 8, 150, int64(42)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{
		X: x, Y: y, Method: "bagged", GridSize: 32,
		Bags: &bags, BagSize: &bagSize, Seed: &seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SelectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad response body %q: %v", body, err)
	}
	want, err := kernreg.SelectBandwidth(x, y,
		kernreg.WithMethod(kernreg.MethodBagged), kernreg.GridSize(32),
		kernreg.Bags(bags), kernreg.BagSize(bagSize), kernreg.Seed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Bandwidth != want.Bandwidth {
		t.Fatalf("served bagged h=%g differs from direct call h=%g", got.Bandwidth, want.Bandwidth)
	}
	if got.Index != -1 {
		t.Fatalf("bagged selection reports grid index %d, want -1", got.Index)
	}
	if got.Method != "bagged" || got.N != 600 {
		t.Fatalf("unexpected metadata: %+v", got)
	}
}

// TestBaggedRequestErrorMessages locks the field names, values and
// statuses of every bagged-parameter rejection, checkSample-style:
// through the decoder directly, so a message edit breaks loudly here.
func TestBaggedRequestErrorMessages(t *testing.T) {
	cfg := Config{}.withDefaults()
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantMsg    string
	}{
		{"bags without bagged method", `{"x":[1,2,3],"y":[1,2,3],"method":"sorted","bags":4}`,
			http.StatusBadRequest, `bags, bag_size and seed require "method": "bagged", got "sorted"`},
		{"seed without any method", `{"x":[1,2,3],"y":[1,2,3],"seed":7}`,
			http.StatusBadRequest, `bags, bag_size and seed require "method": "bagged", got ""`},
		{"zero bags", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bags":0}`,
			http.StatusBadRequest, "bags must be at least 1, got 0"},
		{"negative bags", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bags":-3}`,
			http.StatusBadRequest, "bags must be at least 1, got -3"},
		{"too many bags", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bags":257}`,
			http.StatusRequestEntityTooLarge, "bags=257 exceeds the limit of 256"},
		{"bag size one", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bag_size":1}`,
			http.StatusBadRequest, "bag_size must be at least 2, got 1"},
		{"zero bag size", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bag_size":0}`,
			http.StatusBadRequest, "bag_size must be at least 2, got 0"},
		{"bag size over n", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bag_size":4}`,
			http.StatusBadRequest, "bag_size=4 exceeds n=3"},
		{"negative seed", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","seed":-1}`,
			http.StatusBadRequest, "seed must be non-negative, got -1"},
		{"valid bagged", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged","bags":2,"bag_size":2,"seed":0}`, 0, ""},
		{"valid defaults", `{"x":[1,2,3],"y":[1,2,3],"method":"bagged"}`, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, herr := decodeSelectRequest(nil, httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(tc.body)), cfg)
			if tc.wantStatus == 0 {
				if herr != nil {
					t.Fatalf("decode = %q, want nil", herr.msg)
				}
				return
			}
			if herr == nil {
				t.Fatalf("decode = nil, want status %d %q", tc.wantStatus, tc.wantMsg)
			}
			if herr.status != tc.wantStatus {
				t.Errorf("status = %d, want %d", herr.status, tc.wantStatus)
			}
			if herr.msg != tc.wantMsg {
				t.Errorf("msg = %q, want %q", herr.msg, tc.wantMsg)
			}
		})
	}
}

// TestConcurrentBaggedSelectionsWithCancellation extends the
// concurrent-clients battery to the bagged path: 32 clients run bagged
// selections with fixed seeds, half of them disconnect mid-flight.
// Completed responses must match the direct kernreg call bit for bit
// (no partial or crossed Result can), the server must keep serving,
// Drain must complete, and — the pool invariant the bagged workers add
// — every workspace Acquire must be balanced by a Release once the
// server is at rest, even on the cancelled paths.
func TestConcurrentBaggedSelectionsWithCancellation(t *testing.T) {
	h0, m0 := bandwidth.PoolStats()
	r0 := bandwidth.PoolReleases()
	if h0+m0 != r0 {
		t.Fatalf("pool not at rest before the battery: hits+misses=%d, releases=%d", h0+m0, r0)
	}

	srv := New(Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	type outcome struct {
		cancelled bool
		status    int
		got       SelectResponse
		want      kernreg.Selection
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Distinct datasets and seeds: a crossed response cannot match.
			x, y := testdata(400+c, int64(c))
			bags, bagSize, seed := 6, 100, int64(c)
			want, err := kernreg.SelectBandwidth(x, y,
				kernreg.WithMethod(kernreg.MethodBagged), kernreg.GridSize(24),
				kernreg.Bags(bags), kernreg.BagSize(bagSize), kernreg.Seed(seed))
			if err != nil {
				t.Error(err)
				return
			}
			b, err := json.Marshal(SelectRequest{
				X: x, Y: y, Method: "bagged", GridSize: 24,
				Bags: &bags, BagSize: &bagSize, Seed: &seed,
			})
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c%2 == 1 {
				// Odd clients drop mid-flight, at staggered moments.
				go func() {
					time.Sleep(time.Duration(c) * time.Millisecond / 4)
					cancel()
				}()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/select", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			o := outcome{cancelled: c%2 == 1, want: want}
			resp, err := ts.Client().Do(req)
			if err != nil {
				// Only a cancelled client may fail to get a response.
				if !o.cancelled {
					t.Errorf("client %d: %v", c, err)
				}
				outcomes[c] = o
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			o.status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(body, &o.got); err != nil {
					t.Errorf("client %d: bad body %q: %v", c, body, err)
				}
			}
			outcomes[c] = o
		}(c)
	}
	wg.Wait()

	completed := 0
	for c, o := range outcomes {
		if o.status == 0 && o.cancelled {
			continue // dropped before a response; nothing to check
		}
		if o.status != http.StatusOK {
			if o.cancelled {
				continue // a late cancel can also surface as a 499 body
			}
			t.Fatalf("client %d: status %d (lost response)", c, o.status)
		}
		completed++
		// Bit-identity with the direct call is the no-partial-result
		// witness: a Result assembled from a cancelled run cannot match.
		if o.got.Bandwidth != o.want.Bandwidth || o.got.Index != -1 {
			t.Fatalf("client %d: got (h=%g, idx=%d), want (h=%g, idx=-1)",
				c, o.got.Bandwidth, o.got.Index, o.want.Bandwidth)
		}
	}
	if completed < clients/2 {
		t.Fatalf("only %d of %d even clients completed", completed, clients/2)
	}

	// The server still serves after the churn.
	x, y := testdata(64, 99)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", SelectRequest{X: x, Y: y})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-battery request: status %d: %s", resp.StatusCode, body)
	}

	// Drain completes: no lost workers.
	ctx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after cancellation battery: %v", err)
	}

	// At rest, every Acquire (hit or miss) has been balanced by a
	// Release — cancelled bag sweeps included.
	h1, m1 := bandwidth.PoolStats()
	r1 := bandwidth.PoolReleases()
	if (h1+m1)-(h0+m0) != r1-r0 {
		t.Fatalf("workspace pool leaked: %d acquires vs %d releases during the battery",
			(h1+m1)-(h0+m0), r1-r0)
	}
}
