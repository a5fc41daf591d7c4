package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gpu"
)

// Fleet-surface battery: the /v1/devices health endpoint, the fault
// injection hook, the "fleet" select method, and the /metrics fleet
// block the CI smoke test greps.

func getJSON(t *testing.T, client *http.Client, url string, dst any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(body, dst); err != nil {
			t.Fatalf("bad body %q: %v", body, err)
		}
	}
	return resp
}

func TestDevicesEndpoint(t *testing.T) {
	srv := New(Config{Workers: 1, FleetDevices: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	var dr DevicesResponse
	if resp := getJSON(t, ts.Client(), ts.URL+"/v1/devices", &dr); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(dr.Devices) != 3 {
		t.Fatalf("devices = %d, want 3", len(dr.Devices))
	}
	for i, d := range dr.Devices {
		if d.Index != i || d.State != "healthy" || d.UUID == "" || d.Name == "" {
			t.Fatalf("device %d = %+v", i, d)
		}
	}
	if len(dr.Events) != 0 {
		t.Fatalf("fresh fleet reports events: %+v", dr.Events)
	}

	// Injection marks the device lost and records one event, which the
	// next GET drains exactly once.
	if err := srv.Fleet().InjectFallOffBus(1); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.Client(), ts.URL+"/v1/devices", &dr)
	if dr.Devices[1].State != "lost" {
		t.Fatalf("device 1 state = %q, want lost", dr.Devices[1].State)
	}
	if len(dr.Events) != 1 || dr.Events[0].Kind != "fell-off-bus" || dr.Events[0].Device != 1 {
		t.Fatalf("events = %+v", dr.Events)
	}
	getJSON(t, ts.Client(), ts.URL+"/v1/devices", &dr)
	if len(dr.Events) != 0 {
		t.Fatalf("events were not drained: %+v", dr.Events)
	}
}

// TestFleetSelectHealsAndReportsMetrics is the serve-layer slice of the
// chaos contract: a fault injected over HTTP, a fleet selection that
// self-heals around it with an answer identical to the direct healthy
// call, and /metrics reporting the health events and requeues.
func TestFleetSelectHealsAndReportsMetrics(t *testing.T) {
	srv := New(Config{Workers: 2, FleetDevices: 3, FaultInjection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(160, 7)
	g, err := bandwidth.DefaultGrid(x, 24)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := gpu.NewSimManager(3, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SelectGPUFleet(context.Background(), x, y, g, hm, core.GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/devices/inject",
		InjectRequest{Device: 2, Kind: "off-bus"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/select",
		SelectRequest{X: x, Y: y, Method: "fleet", GridSize: 24})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d: %s", resp.StatusCode, body)
	}
	var got SelectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	if got.Method != "fleet" || got.N != 160 {
		t.Fatalf("metadata: %+v", got)
	}
	if got.Bandwidth != want.H || got.Index != want.Index || got.CV == nil || *got.CV != want.CV {
		t.Fatalf("served fleet result %+v differs from direct healthy call %+v", got, want.Result)
	}
	if got.Requeues < 1 || got.Degraded != 1 {
		t.Fatalf("requeues=%d degraded=%d, want ≥1 and 1", got.Requeues, got.Degraded)
	}

	var metrics struct {
		Fleet struct {
			Selections        int64 `json:"selections"`
			Requeues          int64 `json:"requeues"`
			DeviceHealthEvent int64 `json:"device_health_events"`
		} `json:"fleet"`
	}
	getJSON(t, ts.Client(), ts.URL+"/metrics", &metrics)
	if metrics.Fleet.Selections != 1 || metrics.Fleet.Requeues < 1 || metrics.Fleet.DeviceHealthEvent < 1 {
		t.Fatalf("metrics fleet block = %+v", metrics.Fleet)
	}
}

func TestFleetSelectRejections(t *testing.T) {
	srv := New(Config{Workers: 1, FleetDevices: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	x, y := testdata(32, 3)
	bags := 4
	cases := []struct {
		name   string
		req    SelectRequest
		status int
		msg    string
	}{
		{
			name:   "fleet with bags",
			req:    SelectRequest{X: x, Y: y, Method: "fleet", Bags: &bags},
			status: http.StatusBadRequest,
			msg:    `bags, bag_size and seed require "method": "bagged", got "fleet"`,
		},
		{
			name:   "fleet over the n cap",
			req:    SelectRequest{X: make([]float64, fleetMaxN+1), Y: make([]float64, fleetMaxN+1), Method: "fleet"},
			status: http.StatusRequestEntityTooLarge,
			msg:    "n=4097 exceeds the fleet limit of 4096 observations",
		},
		{
			name:   "fleet with an unsupported kernel",
			req:    SelectRequest{X: x, Y: y, Method: "fleet", Kernel: "gaussian"},
			status: http.StatusBadRequest,
			msg:    `method "fleet" supports only the epanechnikov kernel, got "gaussian"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select", tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if msg := strings.TrimSpace(string(body)); msg != tc.msg {
				t.Fatalf("message %q, want %q", msg, tc.msg)
			}
		})
	}
}

// TestInjectDisabledByDefault pins the security posture: without
// FaultInjection the hook is not registered at all — 404, not 403.
func TestInjectDisabledByDefault(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/devices/inject",
		InjectRequest{Device: 0, Kind: "off-bus"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("inject on a fleet without FaultInjection: status %d, want 404", resp.StatusCode)
	}
}

func TestInjectValidation(t *testing.T) {
	srv := New(Config{Workers: 1, FleetDevices: 2, FaultInjection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/devices/inject",
		InjectRequest{Device: 0, Kind: "meteor-strike"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "kind must be") {
		t.Fatalf("unknown kind: status %d body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/devices/inject",
		InjectRequest{Device: 7, Kind: "off-bus"})
	if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(body)) != "gpu: no device 7 in a 2-device fleet" {
		t.Fatalf("unknown device: status %d body %s", resp.StatusCode, body)
	}
}

// TestFleetAllDevicesLostMaps503 pins the error mapping for the
// unrecoverable topology: no healthy devices is the server's condition,
// not the client's, so it must map to 503, not 400.
func TestFleetAllDevicesLostMaps503(t *testing.T) {
	srv := New(Config{Workers: 1, FleetDevices: 2, FaultInjection: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/devices/inject",
			InjectRequest{Device: i, Kind: "off-bus"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inject %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	x, y := testdata(32, 3)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/select",
		SelectRequest{X: x, Y: y, Method: "fleet"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no healthy devices") {
		t.Fatalf("body %q does not name the fleet condition", body)
	}
}
