package dist

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// Join is the coordinator base URL, e.g. "http://127.0.0.1:8080".
	Join string
	// Registry receives the worker's metrics; nil selects a fresh
	// private registry.
	Registry *telemetry.Registry
}

// workerMetrics bundles the worker's instruments.
type workerMetrics struct {
	registrations *telemetry.Counter
	shardsDone    *telemetry.Counter
	shardsFailed  *telemetry.Counter
	staleReports  *telemetry.Counter
	shardSeconds  *telemetry.Histogram
}

// Worker pulls shards from a coordinator and executes them under the
// fault-tolerant harness engine. Create with NewWorker, drive with Run.
type Worker struct {
	opts WorkerOptions
	// hc has no Timeout: a pull parks on the coordinator until a shard
	// is pending, and only ctx may cut it short.
	hc      *http.Client
	metrics workerMetrics

	// now is the injected clock (only ever the time.Now value outside
	// tests); see the package comment on the detrand discipline.
	now func() time.Time

	registered atomic.Bool
}

// NewWorker returns a worker that will join the given coordinator.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	harness.RegisterProcessCounters(opts.Registry)
	return &Worker{
		opts: opts,
		hc:   &http.Client{},
		metrics: workerMetrics{
			registrations: opts.Registry.Counter("vd_dist_worker_registrations_total", "registrations with the coordinator (including re-registrations)"),
			shardsDone:    opts.Registry.Counter("vd_dist_worker_shards_done_total", "shards executed and reported"),
			shardsFailed:  opts.Registry.Counter("vd_dist_worker_shards_failed_total", "shards whose local execution failed"),
			staleReports:  opts.Registry.Counter("vd_dist_worker_stale_reports_total", "reports rejected for a stale lease"),
			shardSeconds:  opts.Registry.Histogram("vd_dist_worker_shard_seconds", "local shard execution time", 0.01, 0.1, 0.5, 1, 5, 30, 120),
		},
		now: time.Now,
	}
}

// Registry exposes the worker's metric registry (for /metrics).
func (wk *Worker) Registry() *telemetry.Registry { return wk.opts.Registry }

// Ready reports whether the worker holds a registration and its last
// pull reached the coordinator — the readiness signal of a worker
// process.
func (wk *Worker) Ready() bool { return wk.registered.Load() }

// waitCtx blocks for d or until ctx is cancelled — the same sanctioned
// deterministic-package wait as harness.sleepCtx.
func waitCtx(ctx context.Context, d time.Duration) {
	wctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	<-wctx.Done()
}

// Run joins the coordinator and processes shards until ctx is cancelled,
// the only way to stop a worker: Run returns only then, and always
// returns nil. The worker re-registers whenever the coordinator reports
// its registration expired (it was presumed lost and its shards
// reassigned); by determinism any work it reports under a stale lease is
// discarded without harm.
func (wk *Worker) Run(ctx context.Context) error {
	defer wk.registered.Store(false)
	for {
		reg := wk.register(ctx)
		if ctx.Err() != nil {
			return nil
		}
		interval := reg.HeartbeatInterval
		if interval <= 0 {
			interval = time.Second
		}

		hbCtx, stopHB := context.WithCancel(ctx)
		go wk.heartbeatLoop(hbCtx, reg.Worker, interval)
		wk.workLoop(ctx, reg.Worker, interval)
		stopHB()
		wk.registered.Store(false)
		if ctx.Err() != nil {
			return nil
		}
		// Registration lost: loop around and register again.
	}
}

// register joins the coordinator, retrying until it succeeds or ctx is
// cancelled (check ctx.Err after it returns).
func (wk *Worker) register(ctx context.Context) RegisterResponse {
	for {
		if ctx.Err() != nil {
			return RegisterResponse{}
		}
		var reg RegisterResponse
		_, err := httpJSON(ctx, wk.hc, http.MethodPost, wk.opts.Join+"/dist/v1/workers", nil, &reg)
		if err == nil {
			wk.metrics.registrations.Inc()
			wk.registered.Store(true)
			return reg
		}
		waitCtx(ctx, time.Second)
	}
}

// heartbeatLoop beats at the contract interval until ctx is cancelled.
// Errors are ridden out: the coordinator's timeout, not ours, decides
// when the registration is gone, and the work loop learns of it from
// the pull.
func (wk *Worker) heartbeatLoop(ctx context.Context, id string, interval time.Duration) {
	url := wk.opts.Join + "/dist/v1/workers/" + id + "/heartbeat"
	for {
		waitCtx(ctx, interval)
		if ctx.Err() != nil {
			return
		}
		_, _ = httpJSON(ctx, wk.hc, http.MethodPost, url, nil, nil)
	}
}

// workLoop pulls and executes shards until ctx is cancelled or the
// registration is lost; Run decides (via ctx) whether to re-register or
// stop. Each pull parks on the coordinator until a shard is pending.
// A pull the coordinator does not serve marks the worker not ready
// until a pull or registration succeeds again.
func (wk *Worker) workLoop(ctx context.Context, id string, interval time.Duration) {
	url := wk.opts.Join + "/dist/v1/workers/" + id + "/pull"
	for ctx.Err() == nil {
		var pr PullResponse
		status, err := httpJSON(ctx, wk.hc, http.MethodPost, url, nil, &pr)
		wk.registered.Store(err == nil)
		switch {
		case status == http.StatusNotFound:
			return // the registration expired: Run registers again
		case err != nil:
			// A transport error, or 503 from a draining or closed
			// coordinator: back off one heartbeat interval.
			waitCtx(ctx, interval)
		case pr.Assignment != nil:
			wk.execute(ctx, id, *pr.Assignment)
		}
		// 204: the park reached the coordinator's wait bound; pull again.
	}
}

// execute runs one shard locally and reports the outcome. Local
// execution failure is reported as an error string so the coordinator
// requeues the shard under its bounded budget.
func (wk *Worker) execute(ctx context.Context, id string, asn ShardAssignment) {
	start := wk.now()
	cells, execErr := wk.runShard(ctx, asn)
	wk.metrics.shardSeconds.Observe(wk.now().Sub(start).Seconds())

	req := ReportRequest{Worker: id, Campaign: asn.Campaign, Lease: asn.Lease}
	if execErr != nil {
		if ctx.Err() != nil {
			return // shutting down mid-shard; the coordinator's timeout reassigns
		}
		req.Error = execErr.Error()
		wk.metrics.shardsFailed.Inc()
	} else {
		req.Cells = cells
		wk.metrics.shardsDone.Inc()
	}
	wk.report(ctx, asn.Key, req)
}

// runShard regenerates the corpus and suite and executes the case range.
func (wk *Worker) runShard(ctx context.Context, asn ShardAssignment) ([][]harness.CellResult, error) {
	corpus, err := corpusFor(asn.Spec.Workload)
	if err != nil {
		return nil, err
	}
	tools, err := BuildSuite(asn.Spec.Suite)
	if err != nil {
		return nil, err
	}
	return harness.RunShardCtx(ctx, corpus, tools, asn.Spec.Options, asn.Lo, asn.Hi)
}

// report delivers a shard result, retrying transport failures until ctx
// is cancelled. Terminal rejections (stale lease, unknown campaign) are
// accepted silently: the coordinator has moved on and determinism makes
// the loss harmless.
func (wk *Worker) report(ctx context.Context, key string, req ReportRequest) {
	url := wk.opts.Join + "/dist/v1/shards/" + key + "/result"
	for {
		status, err := httpJSON(ctx, wk.hc, http.MethodPost, url, req, nil)
		if err == nil {
			return
		}
		if status != 0 {
			// The server answered: 409 stale lease, 404 unknown, 400 shape.
			// None are retryable.
			if status == http.StatusConflict {
				wk.metrics.staleReports.Inc()
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
		waitCtx(ctx, time.Second)
	}
}
