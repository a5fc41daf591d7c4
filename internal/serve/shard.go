package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/wire"
	"repro/kernreg"
)

// Shard protocol: the coordinator splits one selection's candidate grid
// into contiguous sub-grids and POSTs each to a worker replica's
// /v1/shard. The contract is bit-identity — merging the shard winners
// with the lowest-index tie-break must equal the single-node answer
// down to the last bit — so nothing numeric travels as decimal JSON:
// x, y and the explicit grid values arrive as base64 little-endian
// float64 bit streams, and the response carries h and cv as hex bit
// patterns (a degenerate shard can legally score +Inf, which plain
// JSON cannot represent at all).
//
// The endpoint admits work through the same bounded pool as
// /v1/select, so a worker's queue depth — exported by GET /v1/load and
// echoed in every shard response — is an honest backpressure signal
// covering coordinator and direct traffic alike.

// ShardRequest is the body of POST /v1/shard.
type ShardRequest struct {
	// XB64/YB64/GridB64 are base64 little-endian float64 bit streams
	// (wire.EncodeFloat64s). The grid is the shard's explicit candidate
	// values — never a (min, max, k) range, whose reconstruction is not
	// bitwise faithful on a sub-interval.
	XB64    string `json:"x_b64"`
	YB64    string `json:"y_b64"`
	GridB64 string `json:"grid_b64"`
	// Method names the selector to run, one kernreg reports shardable
	// (kernreg.ShardMethod); empty means kernreg.DefaultMethod.
	Method string `json:"method,omitempty"`
	// Kernel names the kernel function; empty means "epanechnikov".
	Kernel string `json:"kernel,omitempty"`
	// Stable toggles compensated summation; omitted means on.
	Stable *bool `json:"stable,omitempty"`
	// KeepScores returns the shard's full CV vector (bit-encoded).
	KeepScores bool `json:"keep_scores,omitempty"`
	// Offset is the shard's first index in the coordinator's full grid,
	// echoed back so responses are self-describing under hedging.
	Offset int `json:"offset"`
}

// ShardResponse is the body of a successful /v1/shard.
type ShardResponse struct {
	// HBits/CVBits are the winning bandwidth and CV score as hex
	// float64 bit patterns (wire.FormatBits).
	HBits  string `json:"h_bits"`
	CVBits string `json:"cv_bits"`
	// Index is the winner's position within this shard's grid; add
	// Offset for the position in the coordinator's full grid.
	Index  int `json:"index"`
	Offset int `json:"offset"`
	// ScoresB64 carries the shard's CV vector when KeepScores was set.
	ScoresB64 string `json:"scores_b64,omitempty"`
	// QueueDepth is the worker's admission-queue depth at response
	// time — the coordinator's placement signal, piggybacked so a busy
	// cluster needs no extra /v1/load round-trips.
	QueueDepth int `json:"queue_depth"`
	// Worker echoes Config.WorkerLabel.
	Worker    string  `json:"worker,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// LoadResponse is the body of GET /v1/load.
type LoadResponse struct {
	QueueDepth int    `json:"queue_depth"`
	Workers    int    `json:"workers"`
	Draining   bool   `json:"draining"`
	Worker     string `json:"worker,omitempty"`
}

// decodeShardRequest parses and validates a /v1/shard body, whose
// limit admits x and y at MaxN observations and a grid of MaxGrid
// points. All failures are 4xx by construction.
func decodeShardRequest(w http.ResponseWriter, r *http.Request, cfg Config) (*ShardRequest, []float64, []float64, bandwidth.Grid, *httpError) {
	var req ShardRequest
	if herr := decodeRequest(w, r, BodyLimit(2*cfg.MaxN+cfg.MaxGrid), cfg.MaxN, &req); herr != nil {
		return nil, nil, nil, bandwidth.Grid{}, herr
	}
	x, err := wire.DecodeFloat64s(req.XB64)
	if err != nil {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("x_b64: %v", err)
	}
	y, err := wire.DecodeFloat64s(req.YB64)
	if err != nil {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("y_b64: %v", err)
	}
	gv, err := wire.DecodeFloat64s(req.GridB64)
	if err != nil {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("grid_b64: %v", err)
	}
	if herr := checkSample(x, y, cfg); herr != nil {
		return nil, nil, nil, bandwidth.Grid{}, herr
	}
	if len(gv) > cfg.MaxGrid {
		return nil, nil, nil, bandwidth.Grid{}, tooLarge("grid of %d points exceeds the limit of %d", len(gv), cfg.MaxGrid)
	}
	g := bandwidth.Grid{H: gv}
	if err := g.Validate(); err != nil {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("grid: %v", err)
	}
	if req.Offset < 0 {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("offset must be non-negative, got %d", req.Offset)
	}
	if _, err := kernreg.ShardMethod(req.Method, req.Kernel); err != nil {
		return nil, nil, nil, bandwidth.Grid{}, badRequest("%v", err)
	}
	return &req, x, y, g, nil
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	req, x, y, g, herr := decodeShardRequest(w, r, s.cfg)
	if herr != nil {
		s.metrics.IncRejected()
		http.Error(w, herr.msg, herr.status)
		return
	}
	stable := req.Stable == nil || *req.Stable
	start := time.Now()
	var res kernreg.Selection
	ok := s.runJob(w, r, "shard", func(ctx context.Context) error {
		var err error
		res, err = kernreg.SelectShard(ctx, x, y, g.H, req.Method, req.Kernel, stable, req.KeepScores)
		return err
	})
	if !ok {
		return
	}
	resp := ShardResponse{
		HBits:      wire.FormatBits(res.Bandwidth),
		CVBits:     wire.FormatBits(res.CV),
		Index:      res.Index,
		Offset:     req.Offset,
		QueueDepth: s.metrics.QueueDepth(),
		Worker:     s.cfg.WorkerLabel,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.KeepScores {
		resp.ScoresB64 = wire.EncodeFloat64s(res.Scores)
	}
	writeJSON(w, resp)
}

// handleLoad reports the worker's instantaneous admission-queue depth —
// the coordinator's placement signal. It bypasses the pool: a load
// probe that queued behind the very work it is measuring would be
// useless as a backpressure signal.
func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, LoadResponse{
		QueueDepth: s.metrics.QueueDepth(),
		Workers:    s.cfg.Workers,
		Draining:   s.Draining(),
		Worker:     s.cfg.WorkerLabel,
	})
}
