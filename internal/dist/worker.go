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
	// PollInterval is the idle wait between pulls that found no work;
	// zero selects the coordinator's heartbeat interval.
	PollInterval time.Duration
	// HTTPClient overrides the transport; nil selects a dedicated
	// default client.
	HTTPClient *http.Client
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
	opts    WorkerOptions
	hc      *http.Client
	metrics workerMetrics

	// now is the injected clock (only ever the time.Now value outside
	// tests); see the package comment on the detrand discipline.
	now func() time.Time

	registered atomic.Bool
}

// NewWorker returns a worker that will join the given coordinator.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	harness.RegisterProcessCounters(opts.Registry)
	return &Worker{
		opts: opts,
		hc:   opts.HTTPClient,
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

// Ready reports whether the worker currently holds a registration — the
// readiness signal of a worker process.
func (wk *Worker) Ready() bool { return wk.registered.Load() }

// waitCtx blocks for d or until ctx is cancelled — the same sanctioned
// deterministic-package wait as harness.sleepCtx.
func waitCtx(ctx context.Context, d time.Duration) {
	wctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	<-wctx.Done()
}

// Run joins the coordinator and processes shards until ctx is cancelled,
// which is the normal way to stop a worker (Run then returns nil). The
// worker re-registers whenever the coordinator reports its registration
// expired (it was presumed lost and its shards reassigned); by
// determinism any work it reports under a stale lease is discarded
// without harm.
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
		poll := wk.opts.PollInterval
		if poll <= 0 {
			poll = interval
		}

		// The heartbeat loop owns the registration: when it sees a 404
		// the registration is gone and the main loop must re-register.
		hbCtx, stopHB := context.WithCancel(ctx)
		lost := make(chan struct{}, 1)
		go wk.heartbeatLoop(hbCtx, reg.Worker, interval, lost)

		wk.workLoop(ctx, reg.Worker, poll, lost)
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

// heartbeatLoop beats at the contract interval until ctx is cancelled or
// the coordinator no longer knows the worker (404), which it signals on
// lost.
func (wk *Worker) heartbeatLoop(ctx context.Context, id string, interval time.Duration, lost chan<- struct{}) {
	url := wk.opts.Join + "/dist/v1/workers/" + id + "/heartbeat"
	for {
		waitCtx(ctx, interval)
		if ctx.Err() != nil {
			return
		}
		status, err := httpJSON(ctx, wk.hc, http.MethodPost, url, nil, nil)
		if err != nil && status == http.StatusNotFound {
			select {
			case lost <- struct{}{}:
			default:
			}
			return
		}
		// Transport errors are ridden out: the coordinator's timeout, not
		// ours, decides when the registration is gone.
	}
}

// workLoop pulls and executes shards until ctx is cancelled or the
// registration is lost; Run decides (via ctx) whether to re-register or
// stop.
func (wk *Worker) workLoop(ctx context.Context, id string, poll time.Duration, lost <-chan struct{}) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-lost:
			return
		default:
		}
		asn, ok, err := wk.pull(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// A 404 means the registration expired between heartbeats:
			// hand back to Run to re-register. Transport errors just wait
			// a beat and retry.
			if wk.lostRegistration(err) {
				return
			}
			waitCtx(ctx, poll)
			continue
		}
		if !ok {
			waitCtx(ctx, poll)
			continue
		}
		wk.execute(ctx, id, asn)
	}
}

// lostRegistration recognises the unknown-worker reply in a pull error.
func (wk *Worker) lostRegistration(err error) bool {
	// The helper folds the status into the error text; a 404 on pull can
	// only mean the registration expired.
	return err != nil && errIsStatus(err, http.StatusNotFound)
}

// pull leases the next shard, if any.
func (wk *Worker) pull(ctx context.Context, id string) (ShardAssignment, bool, error) {
	var pr PullResponse
	status, err := httpJSON(ctx, wk.hc, http.MethodPost, wk.opts.Join+"/dist/v1/workers/"+id+"/pull", nil, &pr)
	if err != nil {
		if status == http.StatusNotFound {
			return ShardAssignment{}, false, statusError{status: status, err: err}
		}
		return ShardAssignment{}, false, err
	}
	if status == http.StatusNoContent || pr.Assignment == nil {
		return ShardAssignment{}, false, nil
	}
	return *pr.Assignment, true, nil
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

// statusError carries an HTTP status alongside the transport error so
// callers can branch on it with errIsStatus.
type statusError struct {
	status int
	err    error
}

func (e statusError) Error() string { return e.err.Error() }
func (e statusError) Unwrap() error { return e.err }

func errIsStatus(err error, status int) bool {
	se, ok := err.(statusError)
	return ok && se.status == status
}
