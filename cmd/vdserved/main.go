// Command vdserved serves the benchmark as a JSON API: experiments are
// submitted as jobs, executed on a bounded worker pool, memoised in a
// content-addressed result cache (sound because experiment output is a
// pure function of the configuration, workers excluded), and exposed
// with Prometheus-style telemetry.
//
// Usage:
//
//	vdserved [flags]                          # experiment job API (default mode)
//	vdserved -coordinator [flags]             # distributed-campaign coordinator
//	vdserved -worker -join <url> [flags]      # distributed-campaign worker
//
// Default-mode endpoints:
//
//	POST   /v1/jobs             {"experiment":"e3","quick":true,...}
//	GET    /v1/jobs             list jobs (?state=, ?cursor=, ?limit=)
//	GET    /v1/jobs/{id}        status + queue position
//	GET    /v1/jobs/{id}/result ?format=text|csv|markdown|json, optional ?wait=30s
//	GET    /v1/jobs/{id}/events SSE stream of live campaign progress
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/experiments      catalogue
//	GET    /healthz/live        process liveness
//	GET    /healthz/ready       readiness (503 while draining)
//	GET    /healthz             compatibility alias for liveness
//	GET    /metrics             telemetry snapshot
//
// In -coordinator mode the process serves the internal/dist protocol
// (shard leasing, heartbeats, campaign submission — see the dist package
// docs) plus the same health and metrics endpoints. In -worker mode it
// joins a coordinator, pulls and executes shards, and serves only
// health and metrics locally.
//
// SIGINT/SIGTERM trigger a graceful shutdown: readiness flips to 503
// first, then queued work is canceled and in-flight HTTP requests plus
// running campaigns get the -drain budget to finish; campaigns still
// running when it expires are aborted at their next (tool, case) cell.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/dist"
	"github.com/dsn2015/vdbench/internal/service"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vdserved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vdserved", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", "127.0.0.1:8344", "listen address")
		workers         = fs.Int("workers", 2, "job worker-pool size (concurrent campaigns)")
		campaignWorkers = fs.Int("campaign-workers", 0, "per-campaign worker budget (0 = all cores; results are identical for every value)")
		queueCap        = fs.Int("queue", 64, "maximum queued jobs")
		cacheMB         = fs.Int64("cache-mb", 256, "result-cache byte budget in MiB (0 disables)")
		quick           = fs.Bool("quick", false, "use the reduced smoke-run configuration as the base config")
		toolTimeout     = fs.Duration("tool-timeout", 0, "per-tool deadline for each campaign case (0 = none, otherwise >= 1s)")
		retries         = fs.Int("retries", 0, "extra attempts for tool errors marked retryable")
		retryBackoff    = fs.Duration("retry-backoff", 0, "wait before the first retry (doubles per retry)")
		degraded        = fs.String("degraded", "abort", "policy for cases a tool failed on: abort, skip or count-miss")
		dataDir         = fs.String("data-dir", "", "directory for the durable job store (journal + content-addressed results); empty keeps jobs in memory only")
		drain           = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight HTTP requests and running campaigns")
		coordinator     = fs.Bool("coordinator", false, "serve the distributed-campaign coordinator instead of the experiment job API")
		workerMode      = fs.Bool("worker", false, "run as a distributed-campaign worker; requires -join")
		join            = fs.String("join", "", "coordinator base URL for -worker mode, e.g. http://127.0.0.1:8344")
		hbInterval      = fs.Duration("heartbeat-interval", 0, "coordinator: worker heartbeat cadence (0 = 1s)")
		hbTimeout       = fs.Duration("heartbeat-timeout", 0, "coordinator: silence before a worker's shards are reassigned (0 = 5 intervals)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	// Reject bad execution-policy flags here, with flag vocabulary, rather
	// than letting them surface as harness errors deep inside the first
	// campaign.
	if *retryBackoff < 0 {
		return fmt.Errorf("-retry-backoff must be non-negative, got %v", *retryBackoff)
	}
	if *toolTimeout < 0 || (*toolTimeout > 0 && *toolTimeout < time.Second) {
		return fmt.Errorf("-tool-timeout must be 0 (disabled) or at least 1s, got %v (a tighter deadline would make results hardware-dependent)", *toolTimeout)
	}
	if *coordinator && *workerMode {
		return errors.New("-coordinator and -worker are mutually exclusive")
	}
	if *workerMode && *join == "" {
		return errors.New("-worker requires -join <coordinator URL>")
	}
	if *join != "" && !*workerMode {
		return errors.New("-join only applies to -worker mode")
	}
	if (*hbInterval != 0 || *hbTimeout != 0) && !*coordinator {
		return errors.New("-heartbeat-interval and -heartbeat-timeout only apply to -coordinator mode")
	}
	if *dataDir != "" && (*coordinator || *workerMode) {
		return errors.New("-data-dir only applies to the experiment job API (default mode)")
	}
	if *hbInterval < 0 || *hbTimeout < 0 {
		return errors.New("heartbeat durations must be non-negative")
	}
	if *coordinator {
		return runCoordinator(ctx, *addr, *drain, *hbInterval, *hbTimeout, out)
	}
	if *workerMode {
		return runWorker(ctx, *addr, *join, out)
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *campaignWorkers < 0 {
		return fmt.Errorf("-campaign-workers must be non-negative, got %d (results are identical for every value)", *campaignWorkers)
	}
	policy, err := vdbench.ParseDegradedPolicy(*degraded)
	if err != nil {
		return err
	}
	base := vdbench.DefaultExperimentConfig()
	if *quick {
		base = vdbench.QuickExperimentConfig()
	}
	base.Workers = *campaignWorkers
	base.PerToolTimeout = *toolTimeout
	base.Retry = vdbench.RetryPolicy{MaxRetries: *retries, Backoff: *retryBackoff}
	base.Degraded = policy
	if err := base.Validate(); err != nil {
		return err
	}
	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // Options treats 0 as "default"; negative disables
	}
	svc, err := service.New(service.Options{
		Workers:    *workers,
		QueueCap:   *queueCap,
		CacheBytes: cacheBytes,
		BaseConfig: base,
		DataDir:    *dataDir,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		rec := svc.Recovery()
		fmt.Fprintf(out, "vdserved: recovered %d journal records from %s: %d jobs restored, %d results rehydrated, %d jobs requeued (%d torn records, %d missing blobs, %d orphan blobs)\n",
			rec.Records, *dataDir, rec.Restored, rec.Rehydrated, rec.Requeued, rec.Torn, rec.MissingBlobs, rec.OrphanBlobs)
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Fprintf(out, "vdserved listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "vdserved: shutting down (draining running campaigns)")
	// Flip readiness first so health-checkers stop routing work here
	// while the listener is still answering in-flight requests.
	svc.BeginDrain()
	//vdlint:ignore ctxflow ctx is already cancelled here; the drain budget needs a fresh root or shutdown would abort instantly
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	// Cancels queued jobs immediately; running campaigns share the drain
	// budget and are aborted at their next case boundary when it expires.
	svc.Shutdown(shutdownCtx)
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}

// runCoordinator serves the internal/dist coordinator until ctx is
// cancelled by a signal.
func runCoordinator(ctx context.Context, addr string, drain, hbInterval, hbTimeout time.Duration, out io.Writer) error {
	coord := dist.NewCoordinator(dist.CoordinatorOptions{
		HeartbeatInterval: hbInterval,
		HeartbeatTimeout:  hbTimeout,
	})

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = coord.Close()
		return err
	}
	srv := &http.Server{
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Fprintf(out, "vdserved coordinator listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		_ = coord.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "vdserved: coordinator shutting down")
	// Readiness off first, then stop the listener, then fail whatever
	// campaigns are still running.
	coord.BeginDrain()
	//vdlint:ignore ctxflow ctx is already cancelled here; the drain budget needs a fresh root or shutdown would abort instantly
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if err := coord.Close(); err != nil {
		return err
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}

// runWorker joins a coordinator and executes shards until ctx is
// cancelled by a signal. The local listener serves only health and
// metrics: readiness reflects a live registration and flips off the
// moment shutdown begins.
func runWorker(ctx context.Context, addr, join string, out io.Writer) error {
	wk := dist.NewWorker(dist.WorkerOptions{Join: join})

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var draining atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if draining.Load() || !wk.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, wk.Registry().Snapshot())
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Fprintf(out, "vdserved worker listening on http://%s (joining %s)\n", ln.Addr(), join)

	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()
	workErr := make(chan error, 1)
	go func() { workErr <- wk.Run(ctx) }()

	select {
	case err := <-srvErr:
		stop() // tear the worker loop down with the listener
		<-workErr
		return err
	case err := <-workErr:
		// Run returns nil only on cancellation; any return here while the
		// listener is still up ends the process.
		_ = srv.Close()
		<-srvErr
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "vdserved: worker shutting down")
	draining.Store(true)
	// The worker loop observes ctx and stops pulling; a shard mid-flight
	// is abandoned and the coordinator's heartbeat timeout reassigns it.
	<-workErr
	//vdlint:ignore ctxflow ctx is already cancelled here; the drain budget needs a fresh root or shutdown would abort instantly
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
