package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsn2015/vdbench"
)

// waitDeadline bounds every blocking wait in the tests.
const waitDeadline = 120 * time.Second

func quickCfg() vdbench.ExperimentConfig { return vdbench.QuickExperimentConfig() }

func mustWait(t *testing.T, job *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), waitDeadline)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", job.ID(), err)
	}
}

// gate is a runner test seam: it blocks every execution until release is
// closed (or the job context fires, mirroring a real campaign's abort)
// and counts how many executions actually happened.
type gate struct {
	started chan struct{} // buffered; one tick per execution start
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	runs    int
}

func newGate() *gate {
	return &gate{started: make(chan struct{}, 64), release: make(chan struct{})}
}

// open releases every gated execution; safe to call more than once.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) run(ctx context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
	g.mu.Lock()
	g.runs++
	g.mu.Unlock()
	g.started <- struct{}{}
	select {
	case <-g.release:
		return vdbench.ExperimentResult{ID: id, Title: "gated stub"}, nil
	case <-ctx.Done():
		return vdbench.ExperimentResult{}, ctx.Err()
	}
}

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs
}

func (g *gate) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(waitDeadline):
		t.Fatal("no execution started")
	}
}

func counterValue(s *Service, name string) uint64 {
	return s.Metrics().Counter(name, "").Value()
}

func TestSubmitRunsExperiment(t *testing.T) {
	svc := mustNew(t, Options{Workers: 2})
	defer svc.Close()
	job, err := svc.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "e1" || len(res.Tables) == 0 {
		t.Fatalf("unexpected result: id=%q tables=%d", res.ID, len(res.Tables))
	}
	st, ok := svc.Status(job.ID())
	if !ok || st.Status != StatusDone || st.Cached {
		t.Fatalf("status = %+v", st)
	}
}

func TestSubmitErrors(t *testing.T) {
	svc := mustNew(t, Options{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit("e99", quickCfg()); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment error = %v", err)
	}
	bad := quickCfg()
	bad.Services = -5
	if _, err := svc.Submit("e1", bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestCacheHitByteIdentical is the core memoisation guarantee: a warm
// submission must not re-run the campaign, and every rendered format of
// the cached result must be byte-identical to the cold run.
func TestCacheHitByteIdentical(t *testing.T) {
	svc := mustNew(t, Options{Workers: 1})
	defer svc.Close()
	cold, err := svc.Submit("e3", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, cold)
	coldRes, err := cold.Result()
	if err != nil {
		t.Fatal(err)
	}
	campaigns := svc.Metrics().Histogram("vd_campaign_seconds", "").Count()

	warm, err := svc.Submit("e3", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, warm) // already done: done closed at submit time
	st, _ := svc.Status(warm.ID())
	if st.Status != StatusDone || !st.Cached {
		t.Fatalf("warm status = %+v, want done+cached", st)
	}
	if got := counterValue(svc, "vd_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := svc.Metrics().Histogram("vd_campaign_seconds", "").Count(); got != campaigns {
		t.Fatalf("warm submission ran a campaign (%d -> %d executions)", campaigns, got)
	}
	warmRes, err := warm.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range vdbench.ResultFormats() {
		a, err := coldRes.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warmRes.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("format %s: cache hit is not byte-identical to the cold run", format)
		}
	}
}

// TestCacheKeyExcludesWorkers: runs differing only in campaign worker
// count share one cache entry, because the output is workers-invariant.
func TestCacheKeyExcludesWorkers(t *testing.T) {
	svc := mustNew(t, Options{Workers: 1})
	defer svc.Close()
	cfg1 := quickCfg()
	cfg1.Workers = 1
	cfg4 := quickCfg()
	cfg4.Workers = 4
	j1, err := svc.Submit("e1", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, j1)
	j4, err := svc.Submit("e1", cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Key() != j4.Key() {
		t.Fatalf("cache keys differ across worker counts: %s vs %s", j1.Key(), j4.Key())
	}
	st, _ := svc.Status(j4.ID())
	if !st.Cached {
		t.Fatal("workers-only change missed the cache")
	}
}

// TestSingleflightCollapses: N concurrent identical submissions execute
// exactly one campaign and share one job.
func TestSingleflightCollapses(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 2}, g.run)
	defer func() { g.open(); svc.Close() }()

	const n = 8
	jobs := make([]*Job, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = svc.Submit("e3", quickCfg())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if jobs[i] != jobs[0] {
			t.Fatalf("submission %d got a different job (%s vs %s)", i, jobs[i].ID(), jobs[0].ID())
		}
	}
	g.waitStarted(t)
	g.open()
	mustWait(t, jobs[0])
	if g.count() != 1 {
		t.Fatalf("%d identical submissions executed %d campaigns, want 1", n, g.count())
	}
	if got := counterValue(svc, "vd_singleflight_collapsed_total"); got != n-1 {
		t.Fatalf("collapsed counter = %d, want %d", got, n-1)
	}
}

func TestQueuePositions(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1}, g.run)
	defer func() { g.open(); svc.Close() }()

	submit := func(seed uint64) *Job {
		cfg := quickCfg()
		cfg.Seed = seed
		job, err := svc.Submit("e1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	j1 := submit(1)
	g.waitStarted(t) // j1 is running
	j2 := submit(2)
	j3 := submit(3)

	if st, _ := svc.Status(j1.ID()); st.Status != StatusRunning || st.Position != 0 {
		t.Fatalf("j1 status = %+v", st)
	}
	if st, _ := svc.Status(j2.ID()); st.Status != StatusQueued || st.Position != 1 {
		t.Fatalf("j2 status = %+v, want queued position 1", st)
	}
	if st, _ := svc.Status(j3.ID()); st.Status != StatusQueued || st.Position != 2 {
		t.Fatalf("j3 status = %+v, want queued position 2", st)
	}
	if depth := svc.Metrics().Gauge("vd_queue_depth", "").Value(); depth != 2 {
		t.Fatalf("queue depth = %d, want 2", depth)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1}, g.run)
	defer func() { g.open(); svc.Close() }()

	if _, err := svc.Submit("e1", quickCfg()); err != nil {
		t.Fatal(err) // occupies the single worker
	}
	g.waitStarted(t)
	cfg2 := quickCfg()
	cfg2.Seed = 2
	j2, err := svc.Submit("e1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Cancel(j2.ID()) {
		t.Fatal("queued job not cancelable")
	}
	mustWait(t, j2)
	if _, err := j2.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job result error = %v", err)
	}
	// The canceled job left the singleflight table: an identical
	// submission gets a fresh job rather than the canceled one.
	j2b, err := svc.Submit("e1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if j2b == j2 {
		t.Fatal("new submission collapsed onto a canceled job")
	}
}

// TestCancelRunningJob: Cancel on a running job fires its context, the
// campaign aborts, the worker publishes the canceled state and the
// worker slot frees for the next job.
func TestCancelRunningJob(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1}, g.run)
	defer func() { g.open(); svc.Close() }()

	j1, err := svc.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if st, _ := svc.Status(j1.ID()); st.Status != StatusRunning {
		t.Fatalf("j1 status = %+v, want running", st)
	}
	if !svc.Cancel(j1.ID()) {
		t.Fatal("running job not cancelable")
	}
	mustWait(t, j1)
	if _, err := j1.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled running job result error = %v", err)
	}
	if st, _ := svc.Status(j1.ID()); st.Status != StatusCanceled {
		t.Fatalf("j1 status = %+v, want canceled", st)
	}
	// The slot is free and the doomed job left the singleflight table: an
	// identical submission starts a fresh campaign.
	j1b, err := svc.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if j1b == j1 {
		t.Fatal("new submission collapsed onto the canceled job")
	}
	g.waitStarted(t)
	// The worker finished j1's bookkeeping before dequeuing j1b, so the
	// counters are settled by now.
	if got := counterValue(svc, "vd_jobs_canceled_total"); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	if got := counterValue(svc, "vd_jobs_failed_total"); got != 0 {
		t.Fatalf("failed counter = %d, want 0 (cancellation is not a failure)", got)
	}
	g.open()
	mustWait(t, j1b)
	if res, err := j1b.Result(); err != nil || res.Title != "gated stub" {
		t.Fatalf("fresh job after cancel: res=%+v err=%v", res, err)
	}
	if svc.Cancel(j1b.ID()) {
		t.Fatal("terminal job reported cancelable")
	}
}

// TestShutdownAbortsRunningAfterBudget: Shutdown with an expired drain
// budget cancels the running campaign instead of waiting for it.
func TestShutdownAbortsRunningAfterBudget(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1}, g.run)
	defer g.open()

	j1, err := svc.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // budget already spent: abort immediately
	svc.Shutdown(ctx)

	if _, err := j1.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job after bounded shutdown: %v, want canceled", err)
	}
	if _, err := svc.Submit("e1", quickCfg()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Shutdown = %v, want ErrClosed", err)
	}
}

func TestQueueFull(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1, QueueCap: 1}, g.run)
	defer func() { g.open(); svc.Close() }()

	submit := func(seed uint64) (*Job, error) {
		cfg := quickCfg()
		cfg.Seed = seed
		return svc.Submit("e1", cfg)
	}
	if _, err := submit(1); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t) // worker busy; queue empty again
	if _, err := submit(2); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := submit(3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue error = %v", err)
	}
}

// TestCloseDrainsRunningAndCancelsQueued is the graceful-shutdown
// guarantee: Close waits for the running campaign to finish and cancels
// jobs that never started.
func TestCloseDrainsRunningAndCancelsQueued(t *testing.T) {
	g := newGate()
	svc := mustNewService(t, Options{Workers: 1}, g.run)

	j1, err := svc.Submit("e1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	cfg2 := quickCfg()
	cfg2.Seed = 2
	j2, err := svc.Submit("e1", cfg2)
	if err != nil {
		t.Fatal(err)
	}

	released := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(released)
		g.open()
	}()
	svc.Close() // must block until the running campaign drains
	select {
	case <-released:
	default:
		t.Fatal("Close returned before the running campaign finished")
	}
	if res, err := j1.Result(); err != nil || res.Title != "gated stub" {
		t.Fatalf("running job was not drained: res=%+v err=%v", res, err)
	}
	if _, err := j2.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job after Close: %v, want canceled", err)
	}
	if _, err := svc.Submit("e1", quickCfg()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

func TestJobHistoryBounded(t *testing.T) {
	instant := func(_ context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		return vdbench.ExperimentResult{ID: id}, nil
	}
	svc := mustNewService(t, Options{Workers: 1, JobHistory: 2}, instant)
	defer svc.Close()
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := quickCfg()
		cfg.Seed = seed
		job, err := svc.Submit("e1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, job)
		ids = append(ids, job.ID())
	}
	if _, ok := svc.Status(ids[0]); ok {
		t.Fatal("oldest terminal job still queryable beyond JobHistory")
	}
	for _, id := range ids[1:] {
		if _, ok := svc.Status(id); !ok {
			t.Fatalf("recent job %s forgotten", id)
		}
	}
}

// TestResultCacheAccountingOnEveryInsertion: every path that inserts into
// the result cache reports its evictions and refreshes the gauges, not
// only the post-campaign one. A cache that holds one result runs A, then
// B (evicting A), then is asked for A again: the blob-store promotion
// evicts B, so two evictions are counted and the gauges describe A alone.
func TestResultCacheAccountingOnEveryInsertion(t *testing.T) {
	run := func(_ context.Context, id string, _ vdbench.ExperimentConfig) (vdbench.ExperimentResult, error) {
		// Distinct sizes, so stale gauges cannot pass for fresh ones.
		return vdbench.ExperimentResult{ID: id, Title: "stub " + strings.Repeat(id, len(id)*8)}, nil
	}
	a, _ := run(context.Background(), "e1", quickCfg())
	b, _ := run(context.Background(), "e10", quickCfg())
	sizeA, sizeB := resultSize(a), resultSize(b)
	svc := mustNewService(t, Options{Workers: 1, DataDir: t.TempDir(), CacheBytes: max(sizeA, sizeB)}, run)
	defer svc.Close()
	for _, id := range []string{"e1", "e10", "e1"} {
		job, err := svc.Submit(id, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, job)
	}
	if got := counterValue(svc, "vd_journal_blob_hits_total"); got != 1 {
		t.Fatalf("vd_journal_blob_hits_total = %d, want 1 (the resubmitted A)", got)
	}
	if got := counterValue(svc, "vd_cache_evictions_total"); got != 2 {
		t.Fatalf("vd_cache_evictions_total = %d, want 2", got)
	}
	entries := svc.Metrics().Gauge("vd_cache_entries", "").Value()
	bytes := svc.Metrics().Gauge("vd_cache_bytes", "").Value()
	if entries != 1 || bytes != sizeA {
		t.Fatalf("gauges = %d entries / %d bytes, want 1 / %d (A alone)", entries, bytes, sizeA)
	}
}
