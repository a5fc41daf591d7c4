package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gpu"
)

// Fleet surface: the service owns one simulated multi-GPU fleet
// (gpu.SimManager) shared by every "method": "fleet" selection, so
// injected faults hit requests that are genuinely in flight — the
// self-healing scheduler requeues the lost device's shards and the
// /metrics fleet block records the damage.
//
// Routes:
//
//	GET  /v1/devices        — per-device info + health + drained events
//	POST /v1/devices/inject — fault injection (only with FaultInjection)

// fleetMaxN caps observations for the fleet method: each functional
// fleet selection simulates every kernel thread on the host CPU, so it
// gets a far lower admission limit than the host-side selectors.
const fleetMaxN = 4096

// DeviceStatus is one device's row in GET /v1/devices.
type DeviceStatus struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	UUID     string `json:"uuid"`
	State    string `json:"state"`
	LastXID  int    `json:"last_xid,omitempty"`
	Launches int64  `json:"launches"`
	Faults   int    `json:"faults"`
}

// DeviceEvent is one health event in GET /v1/devices. Events are
// drained: each is reported exactly once; the cumulative count stays
// visible as device_health_events in /metrics.
type DeviceEvent struct {
	Device  int    `json:"device"`
	Kind    string `json:"kind"`
	XID     int    `json:"xid,omitempty"`
	Message string `json:"message"`
	Seq     int64  `json:"seq"`
}

// DevicesResponse is the body of GET /v1/devices.
type DevicesResponse struct {
	Devices []DeviceStatus `json:"devices"`
	Events  []DeviceEvent  `json:"events"`
}

// InjectRequest is the body of POST /v1/devices/inject.
type InjectRequest struct {
	Device int `json:"device"`
	// Kind is "xid", "off-bus" or "mem-pressure".
	Kind string `json:"kind"`
	// XID is the code for "xid" injections; 0 means 79 (uncorrectable
	// ECC, the classic fatal one).
	XID int `json:"xid,omitempty"`
	// Launch arms an "xid" injection to fire on the nth subsequent
	// kernel launch; 0 means the next one.
	Launch int64 `json:"launch,omitempty"`
	// WatermarkBytes is the "mem-pressure" threshold: allocations that
	// would push a device context above it fail.
	WatermarkBytes int64 `json:"watermark_bytes,omitempty"`
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	resp := DevicesResponse{
		Devices: make([]DeviceStatus, 0, s.fleet.DeviceCount()),
		Events:  []DeviceEvent{},
	}
	for i := 0; i < s.fleet.DeviceCount(); i++ {
		info, err := s.fleet.DeviceInfo(i)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h, err := s.fleet.DeviceHealth(i)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp.Devices = append(resp.Devices, DeviceStatus{
			Index:    info.Index,
			Name:     info.Name,
			UUID:     info.UUID,
			State:    h.State.String(),
			LastXID:  h.LastXID,
			Launches: h.Launches,
			Faults:   h.Faults,
		})
	}
	for _, ev := range s.fleet.CollectHealthEvents() {
		resp.Events = append(resp.Events, DeviceEvent{
			Device: ev.Device, Kind: ev.Kind, XID: ev.XID,
			Message: ev.Message, Seq: ev.Seq,
		})
	}
	writeJSON(w, resp)
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req InjectRequest
	if herr := decodeRequest(w, r, BodyLimit(0), 0, &req); herr != nil {
		s.metrics.IncRejected()
		http.Error(w, herr.msg, herr.status)
		return
	}
	var err error
	switch req.Kind {
	case "xid":
		code := req.XID
		if code == 0 {
			code = 79
		}
		launch := req.Launch
		if launch == 0 {
			launch = 1
		}
		err = s.fleet.InjectXID(req.Device, code, launch)
	case "off-bus":
		err = s.fleet.InjectFallOffBus(req.Device)
	case "mem-pressure":
		err = s.fleet.InjectMemPressure(req.Device, req.WatermarkBytes)
	default:
		s.metrics.IncRejected()
		http.Error(w, "kind must be \"xid\", \"off-bus\" or \"mem-pressure\"", http.StatusBadRequest)
		return
	}
	if err != nil {
		s.metrics.IncRejected()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{"status": "injected", "device": req.Device, "kind": req.Kind})
}

// handleFleetSelect runs a "method": "fleet" selection on the shared
// device fleet. Grid construction happens inside the pool job — a
// degenerate sample is the client's data and maps to 400 like every
// other selector rejection — but a fleet with no healthy devices left
// is the server's condition and maps to 503.
func (s *Server) handleFleetSelect(w http.ResponseWriter, r *http.Request, req *SelectRequest) {
	start := time.Now()
	var res core.MultiGPUResult
	var unavailable *httpError
	ok := s.runJob(w, r, "select", func(ctx context.Context) error {
		k := req.GridSize
		if k == 0 {
			k = defaultFleetGrid
		}
		var g bandwidth.Grid
		var err error
		if req.GridMin != 0 || req.GridMax != 0 {
			g, err = bandwidth.NewGrid(req.GridMin, req.GridMax, k)
		} else {
			g, err = bandwidth.DefaultGrid(req.X, k)
		}
		if err != nil {
			return err
		}
		opt := core.GPUOptions{KeepScores: req.KeepScores}
		if req.Stable != nil && !*req.Stable {
			opt.Uncompensated = true
		}
		res, err = core.SelectGPUFleetContext(ctx, req.X, req.Y, g, s.fleet, opt)
		if err != nil {
			if errors.Is(err, core.ErrNoHealthyDevices) {
				unavailable = &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
				return nil
			}
			return err
		}
		return nil
	})
	if !ok {
		return
	}
	if unavailable != nil {
		s.metrics.IncFailures()
		http.Error(w, unavailable.msg, unavailable.status)
		return
	}
	s.metrics.IncFleetSelections()
	s.metrics.AddFleetRequeues(int64(res.Requeues))
	resp := SelectResponse{
		Bandwidth: res.H,
		CV:        finitePtr(res.CV),
		Index:     res.Index,
		Method:    "fleet",
		N:         len(req.X),
		Requeues:  res.Requeues,
		Degraded:  res.Degraded,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.KeepScores {
		resp.Scores = finiteSlice(res.Scores)
	}
	writeJSON(w, resp)
}

// defaultFleetGrid matches the kernreg default grid size so "fleet"
// behaves like the other methods when grid_size is omitted.
const defaultFleetGrid = 50

// Fleet returns the server's shared device fleet (for tests and the
// kernregd smoke script's assertions).
func (s *Server) Fleet() *gpu.SimManager { return s.fleet }
