// Package service is the benchmark-as-a-service layer: a job scheduler
// over the deterministic experiment pipeline (vdbench.RunExperimentCtx)
// with a bounded worker pool, a content-addressed result cache, and
// singleflight collapsing of identical in-flight requests. Every job
// runs under its own context derived from the service root, so DELETE
// on a running job and a bounded Shutdown both abort the underlying
// campaign at its next (tool, case) cell.
//
// The design leans entirely on the repo's determinism guarantee: an
// experiment result is a pure function of (experiment ID, config minus
// Workers), byte-identical across runs and worker counts. That makes the
// cache key sound (vdbench.ExperimentCacheKey) and means a cache hit or
// a collapsed duplicate request is indistinguishable from a fresh
// campaign — determinism exploited for performance, not merely
// preserved.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull is returned by Submit when the job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownExperiment is returned by Submit for an ID outside the
	// experiment catalogue.
	ErrUnknownExperiment = errors.New("service: unknown experiment")
	// ErrNotDone is returned by Job.Result while the job has not finished.
	ErrNotDone = errors.New("service: job not done")
)

// Status is a job lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether a status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one submitted experiment run. Jobs are created by Submit and
// complete asynchronously; Done unblocks when the job reaches a terminal
// state. Identical in-flight submissions share one Job (singleflight).
type Job struct {
	id         string
	key        string
	experiment string
	cfg        vdbench.ExperimentConfig
	seq        uint64 // submission order among queued jobs; 0 when never queued
	ord        uint64 // global submission ordinal: the job-listing cursor, stable across restarts

	//vdlint:ignore ctxflow a Job is itself a cancellation scope: Cancel aborts it via this stored context, which exists only for the job's own lifetime
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	status Status
	result vdbench.ExperimentResult
	err    error
	cached bool
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the content address of the job's (experiment, config).
func (j *Job) Key() string { return j.key }

// Experiment returns the experiment ID.
func (j *Job) Experiment() string { return j.experiment }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-j.done:
		return nil
	}
}

// Result returns the experiment result of a done job, the failure of a
// failed job, and ErrNotDone otherwise.
func (j *Job) Result() (vdbench.ExperimentResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.result, nil
	case StatusFailed:
		return vdbench.ExperimentResult{}, j.err
	case StatusCanceled:
		return vdbench.ExperimentResult{}, context.Canceled
	default:
		return vdbench.ExperimentResult{}, ErrNotDone
	}
}

// casStatus moves the job from exactly `from` to `to`, reporting whether
// the transition happened. All lifecycle moves go through this compare-
// and-swap, so a Cancel racing a worker resolves to exactly one winner
// and done is closed exactly once.
func (j *Job) casStatus(from, to Status, res vdbench.ExperimentResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != from {
		return false
	}
	j.status = to
	j.result = res
	j.err = err
	if to.terminal() {
		close(j.done)
	}
	return true
}

// JobStatus is the externally visible snapshot of a job, shaped for the
// JSON API.
type JobStatus struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	Status     Status `json:"status"`
	// Ord is the global submission ordinal; the job-listing cursor is
	// "jobs with Ord greater than this", stable across restarts because
	// ordinals are journaled.
	Ord uint64 `json:"ord"`
	// Position is the 1-based queue position while queued (1 = next to
	// run), 0 otherwise. It counts jobs ahead in submission order,
	// including queued jobs that were canceled but not yet reaped, so it
	// is an upper bound.
	Position int `json:"position,omitempty"`
	// Cached is true when the result came from the content-addressed
	// cache rather than a fresh campaign.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Links maps relations to API paths (self, result, events). The HTTP
	// layer fills it; the core service leaves it nil.
	Links map[string]string `json:"links,omitempty"`
}

// Options configures a Service.
type Options struct {
	// Workers is the job worker-pool size (concurrent campaigns).
	// Defaults to 2.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs.
	// Defaults to 64.
	QueueCap int
	// CacheBytes is the result-cache byte budget (accounted as the size
	// of each result's canonical JSON encoding). Defaults to 256 MiB;
	// negative disables caching.
	CacheBytes int64
	// BaseConfig is the configuration applied to submissions that do not
	// override it. The zero value selects vdbench.DefaultExperimentConfig.
	BaseConfig vdbench.ExperimentConfig
	// JobHistory bounds how many terminal jobs stay queryable; the
	// oldest are forgotten first. Defaults to 1024.
	JobHistory int
	// DataDir enables the durable job store: an append-only lifecycle
	// journal plus content-addressed result files under this directory.
	// On start the journal is replayed — finished jobs rehydrate the
	// result cache, unfinished jobs re-enqueue in submission order and
	// re-execute to byte-identical results (determinism guarantee).
	// Empty keeps the historical in-memory-only behaviour.
	DataDir string
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.BaseConfig == (vdbench.ExperimentConfig{}) {
		o.BaseConfig = vdbench.DefaultExperimentConfig()
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 1024
	}
	return o
}

// runner executes one experiment; injected so tests can observe and gate
// executions. Implementations must observe ctx — job cancellation and
// bounded shutdown both act by cancelling it.
type runner func(ctx context.Context, id string, cfg vdbench.ExperimentConfig) (vdbench.ExperimentResult, error)

// Service schedules experiment jobs over a bounded worker pool with a
// content-addressed result cache and singleflight request collapsing.
type Service struct {
	opts  Options
	run   runner
	reg   *telemetry.Registry
	cache *memo.Cache[string, vdbench.ExperimentResult] // written only by cacheResult
	known map[string]bool                               // experiment catalogue

	queue chan *Job
	wg    sync.WaitGroup

	// draining flips once shutdown begins (or BeginDrain is called
	// explicitly ahead of it); the readiness endpoint keys off it so
	// health-checking coordinators and load balancers stop routing work
	// here while in-flight jobs finish.
	draining atomic.Bool

	//vdlint:ignore ctxflow the service owns its workers' lifetime; rootCtx is the shutdown signal Close fires, not a request context
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// store is the durable journal + result store (nil when
	// Options.DataDir is empty); storeOff is a test hook that detaches
	// an abandoned service from a shared store without closing it.
	store    *jobStore
	storeOff atomic.Bool
	recovery RecoveryStats

	// events fans live campaign progress out to SSE subscribers.
	events *eventHub

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	history  []string        // terminal job IDs in completion order
	inflight map[string]*Job // cache key -> queued or running job
	nextID   uint64
	nextOrd  uint64 // global submission ordinal counter
	seq      uint64 // jobs handed to the queue
	started  uint64 // jobs taken off the queue

	mSubmitted, mCompleted, mFailed, mCanceled   *telemetry.Counter
	mCacheHit, mCacheMiss, mEvicted              *telemetry.Counter
	mCollapsed                                   *telemetry.Counter
	mJournalRecords, mJournalErrors              *telemetry.Counter
	mJournalReplayed, mJournalTorn               *telemetry.Counter
	mJournalMissingBlobs, mJournalOrphanBlobs    *telemetry.Counter
	mBlobsWritten, mBlobHits                     *telemetry.Counter
	mSSESubscribers, mSSEEventsSent, mSSEDropped *telemetry.Counter
	gQueueDepth, gCacheEntries, gCacheBytes      *telemetry.Gauge
	hCampaign                                    *telemetry.Histogram
}

// New builds and starts a service backed by vdbench.RunExperimentCtx.
// When Options.DataDir is set, the durable job store is opened and
// replayed before any worker runs: the error return is the store
// failing to open (an unusable data directory), never replay content —
// damaged records and blobs degrade to counters, not startup failures.
// Callers must Close it to release the worker pool.
func New(opts Options) (*Service, error) {
	return newService(opts, func(ctx context.Context, id string, cfg vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		return vdbench.RunExperimentCtx(ctx, id, cfg)
	})
}

// newService is New with an injectable runner (test seam).
func newService(opts Options, run runner) (*Service, error) {
	opts = opts.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Service{
		opts:     opts,
		run:      run,
		reg:      reg,
		cache:    memo.New[string](opts.CacheBytes, resultSize),
		known:    map[string]bool{},
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
		events:   newEventHub(),

		mSubmitted: reg.Counter("vd_jobs_submitted_total", "jobs accepted by Submit"),
		mCompleted: reg.Counter("vd_jobs_completed_total", "jobs finished successfully"),
		mFailed:    reg.Counter("vd_jobs_failed_total", "jobs finished with an error"),
		mCanceled:  reg.Counter("vd_jobs_canceled_total", "jobs canceled while queued or running"),
		mCacheHit:  reg.Counter("vd_cache_hits_total", "submissions answered from the result cache"),
		mCacheMiss: reg.Counter("vd_cache_misses_total", "submissions that missed the result cache"),
		mEvicted:   reg.Counter("vd_cache_evictions_total", "cache entries evicted by the byte budget"),
		mCollapsed: reg.Counter("vd_singleflight_collapsed_total", "submissions collapsed onto an identical in-flight job"),

		mJournalRecords:      reg.Counter("vd_journal_records_total", "lifecycle records appended to the job journal"),
		mJournalErrors:       reg.Counter("vd_journal_errors_total", "journal or blob writes that failed (durability degraded)"),
		mJournalReplayed:     reg.Counter("vd_journal_replayed_total", "journal records replayed on start"),
		mJournalTorn:         reg.Counter("vd_journal_torn_records_total", "damaged journal lines dropped by the CRC guard on start"),
		mJournalMissingBlobs: reg.Counter("vd_journal_missing_blobs_total", "finished jobs requeued on start because their result blob was missing or damaged"),
		mJournalOrphanBlobs:  reg.Counter("vd_journal_orphan_blobs_total", "result blobs found on start that no journal record explains"),
		mBlobsWritten:        reg.Counter("vd_journal_blobs_written_total", "results persisted to the content-addressed store"),
		mBlobHits:            reg.Counter("vd_journal_blob_hits_total", "submissions answered from the content-addressed store after missing the memory cache"),

		mSSESubscribers: reg.Counter("vd_sse_subscribers_total", "event-stream subscriptions accepted"),
		mSSEEventsSent:  reg.Counter("vd_sse_events_sent_total", "SSE frames written to subscribers"),
		mSSEDropped:     reg.Counter("vd_sse_dropped_total", "progress snapshots coalesced away under subscriber backpressure"),

		gQueueDepth:   reg.Gauge("vd_queue_depth", "jobs queued and not yet running"),
		gCacheEntries: reg.Gauge("vd_cache_entries", "entries in the result cache"),
		gCacheBytes:   reg.Gauge("vd_cache_bytes", "bytes accounted to the result cache"),

		hCampaign: reg.Histogram("vd_campaign_seconds", "latency of executed campaigns in seconds",
			0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120),
	}
	s.events.dropped = s.mSSEDropped
	// The process counters baseline here, at construction: only growth
	// that happens while this service is running is attributed to it.
	harness.RegisterProcessCounters(reg)
	for _, id := range vdbench.ExperimentIDs() {
		s.known[id] = true
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())

	// Open and replay the durable store before the queue exists or any
	// worker runs: replay owns the whole service, so the backlog can be
	// rebuilt without locking, and the queue is sized to hold it even
	// when it exceeds the configured capacity.
	var backlog []*Job
	if opts.DataDir != "" {
		store, records, stats, err := openJobStore(opts.DataDir)
		if err != nil {
			s.rootCancel()
			return nil, err
		}
		s.store = store
		backlog = s.replayLocked(records, stats)
	}
	queueCap := opts.QueueCap
	if len(backlog) > queueCap {
		queueCap = len(backlog)
	}
	s.queue = make(chan *Job, queueCap)
	for _, job := range backlog {
		s.queue <- job
	}
	s.gQueueDepth.Set(int64(len(backlog)))

	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Metrics returns the service's telemetry registry (the /metrics body is
// its Snapshot).
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// BaseConfig returns the configuration applied to submissions without
// overrides.
func (s *Service) BaseConfig() vdbench.ExperimentConfig { return s.opts.BaseConfig }

// Submit schedules the experiment under the given configuration and
// returns its job. Three fast paths avoid redundant campaigns: a cache
// hit returns an already-done job; an identical in-flight request
// returns the existing job (singleflight); otherwise the job is queued,
// or ErrQueueFull when the bounded queue is at capacity.
func (s *Service) Submit(experiment string, cfg vdbench.ExperimentConfig) (*Job, error) {
	experiment = strings.ToLower(strings.TrimSpace(experiment))
	if !s.known[experiment] {
		return nil, fmt.Errorf("%w %q", ErrUnknownExperiment, experiment)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := vdbench.ExperimentCacheKey(experiment, cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.mSubmitted.Inc()

	res, hit := s.cache.Get(key)
	if hit {
		s.mCacheHit.Inc()
	} else if res, hit = s.storedResult(key); hit {
		// The memory cache missed but the content-addressed store holds
		// the result (evicted earlier, or computed by a previous process).
		// Promote it back into the LRU and answer without a campaign.
		s.mBlobHits.Inc()
		s.cacheResult(key, res)
	} else {
		s.mCacheMiss.Inc()
	}
	if hit {
		job := s.newJobLocked(experiment, cfg, key)
		job.cached = true
		job.status = StatusDone
		job.result = res
		close(job.done)
		s.rememberLocked(job)
		// Journaled as submitted + finished so the job survives restarts
		// like any other; its blob is already durable.
		s.journalSubmitted(job)
		s.journalFinished(job, StatusDone, nil)
		return job, nil
	}

	if j := s.inflight[key]; j != nil {
		s.mCollapsed.Inc()
		return j, nil
	}

	job := s.newJobLocked(experiment, cfg, key)
	s.seq++
	job.seq = s.seq
	s.jobs[job.id] = job
	s.inflight[key] = job
	s.gQueueDepth.Add(1)
	select {
	case s.queue <- job:
	default:
		s.seq--
		delete(s.jobs, job.id)
		delete(s.inflight, key)
		s.gQueueDepth.Add(-1)
		return nil, ErrQueueFull
	}
	s.journalSubmitted(job)
	return job, nil
}

// newJobLocked allocates a job; callers hold s.mu.
func (s *Service) newJobLocked(experiment string, cfg vdbench.ExperimentConfig, key string) *Job {
	s.nextID++
	s.nextOrd++
	ctx, cancel := context.WithCancel(s.rootCtx)
	return &Job{
		id:         fmt.Sprintf("j-%06d", s.nextID),
		key:        key,
		experiment: experiment,
		cfg:        cfg,
		ord:        s.nextOrd,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		status:     StatusQueued,
	}
}

// rememberLocked records a terminal job in the bounded history; callers
// hold s.mu.
func (s *Service) rememberLocked(job *Job) {
	s.jobs[job.id] = job
	s.history = append(s.history, job.id)
	for len(s.history) > s.opts.JobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

// Job returns a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns the externally visible snapshot of a job.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	started := s.started
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	st := JobStatus{
		ID:         job.id,
		Experiment: job.experiment,
		Key:        job.key,
		Status:     job.status,
		Ord:        job.ord,
		Cached:     job.cached,
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	if job.status == StatusQueued && job.seq > started {
		st.Position = int(job.seq - started)
	}
	return st, true
}

// JobList is one page of the job collection: statuses in submission-
// ordinal order plus the cursor for the next page (zero when this page
// reaches the end).
type JobList struct {
	Jobs []JobStatus
	Next uint64
}

// List pages through the known jobs in submission order. state filters
// to one lifecycle state ("" keeps all); cursor is the Ord of the last
// job of the previous page (0 starts from the beginning); limit bounds
// the page size (<= 0 selects 100). The cursor is stable: jobs are
// returned in ascending ordinal order, ordinals never reorder, and a
// job forgotten between pages just disappears from the stream rather
// than shifting it.
func (s *Service) List(state Status, cursor uint64, limit int) JobList {
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	candidates := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.ord > cursor {
			candidates = append(candidates, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(candidates, func(i, k int) bool { return candidates[i].ord < candidates[k].ord })

	list := JobList{Jobs: []JobStatus{}}
	for _, j := range candidates {
		st, ok := s.Status(j.id)
		if !ok || (state != "" && st.Status != state) {
			continue
		}
		list.Jobs = append(list.Jobs, st)
		if len(list.Jobs) == limit {
			// More candidates may remain (even under a state filter, the
			// remaining tail may contain matches): hand out a cursor.
			if j != candidates[len(candidates)-1] {
				list.Next = st.Ord
			}
			break
		}
	}
	return list
}

// Cancel cancels a queued or running job and reports whether it
// initiated a cancellation; terminal jobs are not cancelable. A queued
// job moves straight to canceled. A running job has its context
// canceled: the campaign engine aborts at the next (tool, case) cell,
// the worker that owns the job publishes the canceled terminal state,
// and the worker slot frees without waiting for the campaign to drain.
// In both cases the job leaves the singleflight table immediately, so a
// later identical submission runs fresh rather than collapsing onto the
// doomed job.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	if s.reapQueued(job) {
		return true
	}
	job.mu.Lock()
	running := job.status == StatusRunning
	job.mu.Unlock()
	if !running {
		return false
	}
	job.cancel()
	s.mu.Lock()
	if s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
	s.mu.Unlock()
	return true
}

// reapQueued moves a queued job straight to canceled, reporting whether
// it won the transition. Callers must not hold s.mu.
func (s *Service) reapQueued(job *Job) bool {
	if !job.casStatus(StatusQueued, StatusCanceled, vdbench.ExperimentResult{}, context.Canceled) {
		return false
	}
	s.mCanceled.Inc()
	s.journalFinished(job, StatusCanceled, nil)
	s.retire(job)
	return true
}

// retire releases a terminal job's context, drops its singleflight entry
// if it still owns the key, and records it in the bounded history.
// Callers must not hold s.mu.
func (s *Service) retire(job *Job) {
	job.cancel()
	s.mu.Lock()
	if s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
	s.rememberLocked(job)
	s.mu.Unlock()
}

// worker drains the job queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(job)
	}
}

// execute runs one dequeued job: canceled jobs (per-job Cancel or
// service shutdown) are reaped without running; everything else runs the
// experiment, populates the cache and publishes the terminal state.
func (s *Service) execute(job *Job) {
	s.mu.Lock()
	s.started++
	s.mu.Unlock()
	s.gQueueDepth.Add(-1)

	if job.ctx.Err() != nil {
		// The job was canceled while queued (per-job Cancel or service
		// shutdown): reap it unless the canceler already did.
		s.reapQueued(job)
		return
	}
	if !job.casStatus(StatusQueued, StatusRunning, vdbench.ExperimentResult{}, nil) {
		return // Cancel beat us to the job and already reaped it
	}

	// Second look at the caches now that the job actually runs: an
	// identical result may have landed while this job sat queued (another
	// key-equal job finishing, or replay re-enqueueing the same key
	// twice). Determinism makes the cached result indistinguishable from
	// a fresh campaign, so serve it and free the worker immediately.
	if res, ok := s.cache.Get(job.key); ok {
		s.finishFromCache(job, res)
		return
	}
	if res, ok := s.storedResult(job.key); ok {
		s.mBlobHits.Inc()
		s.cacheResult(job.key, res)
		s.finishFromCache(job, res)
		return
	}

	s.journalStarted(job)
	// Thread the live-progress seam through the campaign: the aggregator
	// publishes coalescible snapshots to this job's SSE subscribers. The
	// listener only observes — the campaign result is byte-identical with
	// or without it.
	agg := newProgressAggregator(job.id, s.events)
	runCtx := vdbench.WithCampaignProgress(job.ctx, agg.observe)
	start := time.Now()
	res, err := s.run(runCtx, job.experiment, job.cfg)
	elapsed := time.Since(start).Seconds()
	s.hCampaign.Observe(elapsed)
	// Per-experiment latency: registration is idempotent by name, so the
	// histogram materialises lazily the first time an experiment runs.
	s.reg.Histogram("vd_experiment_"+job.experiment+"_seconds",
		"latency of experiment "+job.experiment+" in seconds",
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120).Observe(elapsed)

	switch {
	case err != nil && job.ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The campaign aborted because this job's context fired: DELETE
		// on a running job, or a shutdown drain budget expiring. That is
		// a cancellation, not a failure.
		if job.casStatus(StatusRunning, StatusCanceled, vdbench.ExperimentResult{}, context.Canceled) {
			s.mCanceled.Inc()
			s.journalFinished(job, StatusCanceled, nil)
		}
	case err != nil:
		job.casStatus(StatusRunning, StatusFailed, vdbench.ExperimentResult{}, err)
		s.mFailed.Inc()
		s.journalFinished(job, StatusFailed, err)
	default:
		// Durability order matters: the blob first, the finished record
		// second, so a journaled "done" always points at a blob that was
		// durable before it. A crash between the two replays as a requeue.
		s.persistResult(job.key, res)
		s.cacheResult(job.key, res)
		job.casStatus(StatusRunning, StatusDone, res, nil)
		s.mCompleted.Inc()
		s.journalFinished(job, StatusDone, nil)
	}
	s.retire(job)
}

// finishFromCache completes a running job with a cached result: no
// campaign, but the same terminal bookkeeping as a computed one.
func (s *Service) finishFromCache(job *Job, res vdbench.ExperimentResult) {
	job.mu.Lock()
	job.cached = true
	job.mu.Unlock()
	job.casStatus(StatusRunning, StatusDone, res, nil)
	s.mCompleted.Inc()
	s.journalFinished(job, StatusDone, nil)
	s.retire(job)
}

// cacheResult stores res in the byte-budgeted result LRU and refreshes
// the cache telemetry: this insertion's evictions and both gauges. Keys
// are vdbench.ExperimentCacheKey content addresses of pure experiments,
// so a hit is provably equivalent to re-running the campaign.
func (s *Service) cacheResult(key string, res vdbench.ExperimentResult) {
	s.mEvicted.Add(uint64(s.cache.Put(key, res)))
	entries, bytes := s.cache.Len()
	s.gCacheEntries.Set(int64(entries))
	s.gCacheBytes.Set(bytes)
}

// resultSize is the cache accounting size of a result: the length of its
// canonical JSON encoding (the densest artefact a client can fetch).
func resultSize(res vdbench.ExperimentResult) int64 {
	b, err := res.JSON()
	if err != nil {
		return int64(len(res.String()))
	}
	return int64(len(b))
}

// BeginDrain flips readiness off without stopping work: /healthz/ready
// starts answering 503 while everything else keeps serving. Call it
// ahead of Shutdown to let health-checkers route new work elsewhere
// before the listener goes away. Idempotent; Shutdown calls it
// implicitly.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether drain has begun (BeginDrain or Shutdown).
func (s *Service) Draining() bool { return s.draining.Load() }

// Close shuts the service down gracefully: no new submissions are
// accepted, queued jobs are canceled (their contexts fire), and running
// campaigns drain to completion before Close returns. Shutdown is the
// same with a bound on the drain.
func (s *Service) Close() { s.Shutdown(context.Background()) }

// Shutdown is Close with a drain budget: queued jobs are canceled
// immediately and running campaigns get until ctx is done to finish
// naturally. When the budget expires, the running jobs' contexts are
// canceled, each campaign aborts at its next (tool, case) cell with
// partial work discarded, and the jobs finish canceled. Shutdown
// returns once every worker has exited; with a background context it
// degenerates to a full drain.
func (s *Service) Shutdown(ctx context.Context) {
	s.BeginDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.reapQueued(j) // no-op on running and terminal jobs
	}
	close(s.queue)

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.rootCancel() // abort running campaigns at the next cell boundary
		<-drained
	}
	s.rootCancel()
	if !s.storeOff.Load() {
		s.store.close() // nil-safe; after the last worker's final journal write
	}
}

// detachStore (test hook) disconnects the service from its durable
// store without closing it: no further journal or blob writes, and
// Shutdown leaves the store's files alone. Crash-recovery tests use it
// to abandon a "crashed" service whose store a successor has reopened —
// the abandoned service must not append graceful-shutdown cancellation
// records to a journal that is no longer its own.
func (s *Service) detachStore() { s.storeOff.Store(true) }
