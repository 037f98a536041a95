package dist

// The coordinator's HTTP surface. Everything is stdlib net/http + JSON;
// the mux is explicit (never http.DefaultServeMux) and the handler shapes
// mirror internal/service: uniform {"error": ...} bodies, bounded request
// sizes, long-polling via context deadlines on the request context.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// maxSpecBytes bounds campaign submissions (a config, not a corpus).
const maxSpecBytes = 1 << 20

// maxReportBytes bounds shard reports; cells carry full per-sink
// ledgers, so the cap is generous.
const maxReportBytes = 256 << 20

// maxWait bounds every long-poll: a parked worker pull, and a campaign
// status wait regardless of the client's requested wait.
const maxWait = 10 * time.Minute

// RegisterResponse is the reply to a worker registration.
type RegisterResponse struct {
	Worker string `json:"worker"`
	// HeartbeatInterval and HeartbeatTimeout are nanoseconds; the worker
	// must beat at the interval and re-register if it ever learns it
	// expired (404 on heartbeat).
	HeartbeatInterval time.Duration `json:"heartbeat_interval"`
	HeartbeatTimeout  time.Duration `json:"heartbeat_timeout"`
}

// PullResponse is the reply to a work pull that leased a shard.
type PullResponse struct {
	Assignment *ShardAssignment `json:"assignment,omitempty"`
}

// ReportRequest is the body of a shard result report. Exactly one of
// Error and Cells is meaningful: a non-empty Error reports that the
// worker could not execute the shard, and requeues it.
type ReportRequest struct {
	Worker   string                 `json:"worker"`
	Campaign string                 `json:"campaign"`
	Lease    uint64                 `json:"lease"`
	Error    string                 `json:"error,omitempty"`
	Cells    [][]harness.CellResult `json:"cells,omitempty"`
}

// SubmitResponse is the reply to a campaign submission.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Handler returns the coordinator's HTTP API:
//
//	POST /dist/v1/workers                 register; returns worker ID and heartbeat contract
//	POST /dist/v1/workers/{id}/heartbeat  sign of life (204; 404 once expired — re-register)
//	POST /dist/v1/workers/{id}/pull       lease the next shard, parking until one is pending (200 with
//	                                      assignment; 204 only at the wait bound; 404 once expired;
//	                                      503 while draining or closed)
//	POST /dist/v1/shards/{key}/result     report an executed shard (204; 409 stale lease)
//	POST /dist/v1/campaigns               submit a campaign spec (202 with ID)
//	GET  /dist/v1/campaigns/{id}          status; ?wait=30s long-polls for a terminal state
//	GET  /dist/v1/campaigns/{id}/cells    assembled cell grid of a completed campaign
//	GET  /healthz/live                    process liveness
//	GET  /healthz/ready                   readiness; 503 while draining or closed
//	GET  /healthz                         compatibility alias for liveness
//	GET  /metrics                         telemetry snapshot
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dist/v1/workers", c.handleRegister)
	mux.HandleFunc("POST /dist/v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /dist/v1/workers/{id}/pull", c.handlePull)
	mux.HandleFunc("POST /dist/v1/shards/{key}/result", c.handleReport)
	mux.HandleFunc("POST /dist/v1/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /dist/v1/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /dist/v1/campaigns/{id}/cells", c.handleCells)
	mux.HandleFunc("GET /healthz/live", telemetry.Live)
	mux.HandleFunc("GET /healthz/ready", telemetry.Ready(c.Ready))
	mux.HandleFunc("GET /healthz", telemetry.Live)
	mux.Handle("GET /metrics", c.opts.Registry)
	return mux
}

// distWriteJSON mirrors internal/service's writeJSON.
func distWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // status line is out; nothing useful to do on error
}

type distErrorBody struct {
	Error string `json:"error"`
}

func distWriteError(w http.ResponseWriter, code int, format string, args ...any) {
	distWriteJSON(w, code, distErrorBody{Error: fmt.Sprintf(format, args...)})
}

// errStatus maps the package's sentinel errors to HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownCampaign):
		return http.StatusNotFound
	case errors.Is(err, ErrStaleLease):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, _ *http.Request) {
	id, err := c.Register()
	if err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	distWriteJSON(w, http.StatusOK, RegisterResponse{
		Worker:            id,
		HeartbeatInterval: c.opts.HeartbeatInterval,
		HeartbeatTimeout:  c.opts.HeartbeatTimeout,
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := c.Heartbeat(r.PathValue("id")); err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), maxWait)
	defer cancel()
	asn, ok, err := c.Pull(ctx, r.PathValue("id"))
	if err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	distWriteJSON(w, http.StatusOK, PullResponse{Assignment: &asn})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBytes))
	var req ReportRequest
	if err := dec.Decode(&req); err != nil {
		distWriteError(w, http.StatusBadRequest, "malformed shard report: %v", err)
		return
	}
	err := c.Report(req.Worker, req.Campaign, r.PathValue("key"), req.Lease, req.Cells, req.Error)
	if err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		distWriteError(w, http.StatusBadRequest, "malformed campaign spec: %v", err)
		return
	}
	id, err := c.Submit(spec)
	if err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	w.Header().Set("Location", "/dist/v1/campaigns/"+id)
	distWriteJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil || d < 0 {
			distWriteError(w, http.StatusBadRequest, "bad wait duration %q", waitSpec)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(d, maxWait))
		defer cancel()
		st, err := c.WaitStatus(ctx, id)
		if err != nil {
			distWriteError(w, errStatus(err), "%v", err)
			return
		}
		distWriteJSON(w, http.StatusOK, st)
		return
	}
	st, err := c.Status(id)
	if err != nil {
		distWriteError(w, errStatus(err), "%v", err)
		return
	}
	distWriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cells, err := c.Cells(id)
	switch {
	case errors.Is(err, ErrNotDone):
		st, _ := c.Status(id)
		w.Header().Set("Retry-After", "1")
		distWriteJSON(w, http.StatusAccepted, st)
		return
	case err != nil:
		// A failed campaign's cells are gone; the status endpoint carries
		// the error. Distinguish unknown IDs from failures.
		if errors.Is(err, ErrUnknownCampaign) {
			distWriteError(w, http.StatusNotFound, "%v", err)
			return
		}
		distWriteError(w, http.StatusConflict, "campaign %s failed: %v", id, err)
		return
	}
	distWriteJSON(w, http.StatusOK, cells)
}
