package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// maxBodyBytes bounds job-submission bodies; experiment requests are a
// handful of scalar overrides.
const maxBodyBytes = 1 << 20

// maxResultWait bounds how long a result request may long-poll for a job
// to finish, independent of the client's patience.
const maxResultWait = 10 * time.Minute

// Stable machine-readable error codes. These are API surface: clients
// dispatch on them, so existing codes never change meaning and removals
// are breaking. The golden API-surface test pins the set.
const (
	codeMalformedRequest  = "malformed_request"  // body is not the documented JSON shape
	codeBadRequest        = "bad_request"        // a parameter value is out of range or unparseable
	codeUnknownExperiment = "unknown_experiment" // experiment ID not in the catalogue
	codeUnknownJob        = "unknown_job"        // job ID never existed or was forgotten
	codeUnknownFormat     = "unknown_format"     // result format not in vdbench.ResultFormats
	codeQueueFull         = "queue_full"         // bounded job queue at capacity; retry later
	codeDraining          = "draining"           // service is shutting down; no new work
	codeNotDone           = "not_done"           // result requested before the job finished
	codeCanceled          = "canceled"           // job was canceled; no result exists
	codeNotCancelable     = "not_cancelable"     // DELETE on an already-terminal job
	codeJobFailed         = "job_failed"         // campaign failed; message carries the cause
	codeRenderFailed      = "render_failed"      // result exists but the requested render errored
)

// SubmitRequest is the POST /v1/jobs body: an experiment ID plus
// optional overrides of the service's base configuration (mirroring the
// cmd/vdbench flags). Override fields are pointers so that explicit
// zero values are expressible — {"seed": 0} pins seed 0, while omitting
// the field keeps the service default. Workers tunes campaign
// parallelism only — it is excluded from the cache key because the
// output is workers-invariant.
type SubmitRequest struct {
	Experiment string   `json:"experiment"`
	Quick      bool     `json:"quick,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
	Services   *int     `json:"services,omitempty"`
	Prevalence *float64 `json:"prevalence,omitempty"`
	Workers    *int     `json:"workers,omitempty"`
}

// config resolves the request against the service's defaults: Quick
// swaps the base profile, then each present pointer field overrides.
func (r SubmitRequest) config(base vdbench.ExperimentConfig) vdbench.ExperimentConfig {
	cfg := base
	if r.Quick {
		cfg = vdbench.QuickExperimentConfig()
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.Services != nil {
		cfg.Services = *r.Services
	}
	if r.Prevalence != nil {
		cfg.Prevalence = *r.Prevalence
	}
	if r.Workers != nil {
		cfg.Workers = *r.Workers
	}
	return cfg
}

// route is one entry of the API surface table.
type route struct {
	Method  string
	Pattern string
	handle  http.HandlerFunc
}

// routes is the service's whole v1 API surface, as data. The mux is
// built from this table and the golden API-surface test walks it, so a
// route cannot be added or changed without the golden file noticing.
func (s *Service) routes() []route {
	return []route{
		{"POST", "/v1/jobs", s.handleSubmit},
		{"GET", "/v1/jobs", s.handleList},
		{"GET", "/v1/jobs/{id}", s.handleStatus},
		{"GET", "/v1/jobs/{id}/result", s.handleResult},
		{"GET", "/v1/jobs/{id}/events", s.handleEvents},
		{"DELETE", "/v1/jobs/{id}", s.handleCancel},
		{"GET", "/v1/experiments", s.handleExperiments},
		{"GET", "/healthz/live", telemetry.Live},
		{"GET", "/healthz/ready", telemetry.Ready(func() bool { return !s.Draining() })},
		{"GET", "/healthz", telemetry.Live},
		{"GET", "/metrics", s.reg.ServeHTTP},
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit an experiment job
//	GET    /v1/jobs             list jobs (?state=, ?cursor=, ?limit=)
//	GET    /v1/jobs/{id}        job status and queue position
//	GET    /v1/jobs/{id}/result rendered result (?format=text|csv|markdown|json, optional ?wait=30s)
//	GET    /v1/jobs/{id}/events SSE stream of live campaign progress
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/experiments      experiment catalogue
//	GET    /healthz/live        process liveness
//	GET    /healthz/ready       readiness; 503 once draining (BeginDrain/Shutdown)
//	GET    /healthz             compatibility alias for liveness
//	GET    /metrics             telemetry snapshot
//
// Every error response is the envelope {"error":{"code":..,"message":..}}
// with a stable machine-readable code.
//
// Liveness and readiness split on drain: a draining process is still
// alive (don't restart it) but must not receive new work (stop routing
// to it). Coordinators and load balancers should check readiness;
// process supervisors, liveness.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handle)
	}

	requests := s.reg.Counter("vd_http_requests_total", "HTTP requests served")
	inflight := s.reg.Gauge("vd_http_inflight_requests", "HTTP requests currently being served")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		defer inflight.Add(-1)
		mux.ServeHTTP(w, r)
	})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; nothing useful to do on error
}

// apiError is the machine half of an error response: a stable code for
// dispatch plus a human message for logs.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the uniform error envelope every non-2xx JSON response
// carries.
type errorBody struct {
	Error apiError `json:"error"`
}

// writeError is the single exit for error responses; every handler
// failure goes through it so the envelope cannot drift per-route.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// withLinks decorates a job representation with its API paths.
func withLinks(st JobStatus) JobStatus {
	base := "/v1/jobs/" + st.ID
	st.Links = map[string]string{
		"self":   base,
		"result": base + "/result",
		"events": base + "/events",
	}
	return st
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "malformed job request: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, codeMalformedRequest, "malformed job request: trailing data after JSON object")
		return
	}
	job, err := s.Submit(req.Experiment, req.config(s.opts.BaseConfig))
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownExperiment):
		writeError(w, http.StatusNotFound, codeUnknownExperiment, "%v", err)
		return
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, codeQueueFull, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	st, _ := s.Status(job.ID())
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, withLinks(st))
}

// jobPage is the GET /v1/jobs response: one page plus the cursor for
// the next (omitted on the last page).
type jobPage struct {
	Jobs []JobStatus `json:"jobs"`
	Next uint64      `json:"next,omitempty"`
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := Status(q.Get("state"))
	switch state {
	case "", StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"unknown state %q (want queued, running, done, failed or canceled)", state)
		return
	}
	var cursor uint64
	if raw := q.Get("cursor"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad cursor %q", raw)
			return
		}
		cursor = v
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad limit %q (want a positive integer)", raw)
			return
		}
		limit = v
	}
	list := s.List(state, cursor, limit)
	page := jobPage{Jobs: make([]JobStatus, len(list.Jobs)), Next: list.Next}
	for i, st := range list.Jobs {
		page.Jobs[i] = withLinks(st)
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, withLinks(st))
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob, "unknown job %q", id)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	contentType, ok := formatContentTypes()[format]
	if !ok {
		writeError(w, http.StatusBadRequest, codeUnknownFormat, "unknown format %q (want text, csv, markdown or json)", format)
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad wait duration %q", waitSpec)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(d, maxResultWait))
		defer cancel()
		_ = job.Wait(ctx) // on timeout we fall through to the not-done reply
	}
	res, err := job.Result()
	switch {
	case errors.Is(err, ErrNotDone):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, codeNotDone, "job %s is not done (poll again or use ?wait=)", id)
		return
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusGone, codeCanceled, "job %s was canceled", id)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, codeJobFailed, "job %s failed: %v", id, err)
		return
	}
	body, err := res.Render(format)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeRenderFailed, "render: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, body)
}

// progressFrame is the wire shape of one SSE progress event: the
// cumulative snapshot plus how many intermediate snapshots were
// coalesced away since the previous frame this subscriber received.
type progressFrame struct {
	ProgressUpdate
	Coalesced uint64 `json:"coalesced,omitempty"`
}

// handleEvents streams a job's live progress as Server-Sent Events. The
// stream opens with a status frame, carries cumulative progress frames
// while the campaign runs, and ends with a terminal status frame. The
// whole stream is served on this handler's goroutine: subscription is a
// mailbox registration, so a disconnecting client leaks nothing, and a
// slow client coalesces to the freshest snapshot (the campaign never
// waits on it).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob, "unknown job %q", id)
		return
	}

	// Subscribe before the first status read: anything published after
	// the snapshot lands in the mailbox, so no window where progress is
	// lost between "status says running" and "subscribed".
	sub := s.events.subscribe(id)
	defer s.events.unsubscribe(id, sub)
	s.mSSESubscribers.Inc()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	st, _ := s.Status(id)
	if err := s.sendEvent(w, rc, "status", withLinks(st)); err != nil {
		return
	}
	if st.Status.terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.notify:
			update, coalesced, ok := sub.take()
			if !ok {
				continue
			}
			if err := s.sendEvent(w, rc, "progress", progressFrame{ProgressUpdate: update, Coalesced: coalesced}); err != nil {
				return
			}
		case <-job.Done():
			// Flush any progress that beat the terminal transition, then
			// close with the final status.
			if update, coalesced, ok := sub.take(); ok {
				if err := s.sendEvent(w, rc, "progress", progressFrame{ProgressUpdate: update, Coalesced: coalesced}); err != nil {
					return
				}
			}
			if st, ok := s.Status(id); ok {
				_ = s.sendEvent(w, rc, "status", withLinks(st))
			}
			return
		}
	}
}

// sendEvent writes one SSE frame and flushes it through to the client.
func (s *Service) sendEvent(w io.Writer, rc *http.ResponseController, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	if err := rc.Flush(); err != nil {
		return err
	}
	s.mSSEEventsSent.Inc()
	return nil
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob, "unknown job %q", id)
		return
	}
	if !s.Cancel(id) {
		writeError(w, http.StatusConflict, codeNotCancelable, "job %s already finished (only queued and running jobs can be canceled)", id)
		return
	}
	st, _ := s.Status(id)
	writeJSON(w, http.StatusOK, withLinks(st))
}

func (s *Service) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []vdbench.ExperimentInfo `json:"experiments"`
		Formats     []string                 `json:"formats"`
	}{vdbench.Experiments(), vdbench.ResultFormats()})
}

// formatContentTypes maps render formats to response content types.
func formatContentTypes() map[string]string {
	return map[string]string{
		"text":     "text/plain; charset=utf-8",
		"csv":      "text/csv; charset=utf-8",
		"markdown": "text/markdown; charset=utf-8",
		"json":     "application/json",
	}
}
