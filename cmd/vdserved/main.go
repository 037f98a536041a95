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
	"github.com/dsn2015/vdbench/internal/telemetry"
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
		return runWorker(ctx, *addr, *join, *drain, out)
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *campaignWorkers < 0 {
		return fmt.Errorf("-campaign-workers must be non-negative, got %d (results are identical for every value)", *campaignWorkers)
	}
	base := vdbench.DefaultExperimentConfig()
	if *quick {
		base = vdbench.QuickExperimentConfig()
	}
	base.Workers = *campaignWorkers
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

	// svc.Shutdown cancels queued jobs immediately; running campaigns
	// share the drain budget and are aborted at their next case boundary
	// when it expires.
	return serve(ctx, "vdserved", *addr, svc.Handler(), *drain, out, svc.BeginDrain, svc.Shutdown)
}

// runCoordinator serves the internal/dist coordinator until ctx is
// cancelled by a signal. Draining releases parked worker pulls, and the
// campaigns still running once the listener stops are failed.
func runCoordinator(ctx context.Context, addr string, drain, hbInterval, hbTimeout time.Duration, out io.Writer) error {
	coord := dist.NewCoordinator(dist.CoordinatorOptions{
		HeartbeatInterval: hbInterval,
		HeartbeatTimeout:  hbTimeout,
	})
	return serve(ctx, "vdserved coordinator", addr, coord.Handler(), drain, out, coord.BeginDrain,
		func(context.Context) { _ = coord.Close() })
}

// serve listens on addr and serves h until ctx is cancelled or a
// SIGINT/SIGTERM arrives. Shutdown runs in a fixed order: beginDrain
// flips readiness off (and must release any parked request) while the
// listener still answers, srv.Shutdown gives in-flight requests the
// drain budget, and release gets the same budget to stop the role. A
// failed listen or serve calls release at once.
func serve(ctx context.Context, name, addr string, h http.Handler, drain time.Duration, out io.Writer,
	beginDrain func(), release func(context.Context)) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		release(context.WithoutCancel(ctx))
		return err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Fprintf(out, "%s listening on http://%s\n", name, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		release(context.WithoutCancel(ctx))
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "%s: shutting down (draining running campaigns)\n", name)
	beginDrain()
	// ctx is already cancelled here: the drain budget must not inherit
	// that, or shutdown would abort at once.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	release(shutdownCtx)
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}

// runWorker joins a coordinator and executes shards until ctx is
// cancelled by a signal, on the shared serve lifecycle. The local
// listener serves only health and metrics: readiness reflects a live
// registration and flips off the moment shutdown begins, which also
// stops the worker loop; a shard mid-flight is abandoned and the
// coordinator's heartbeat timeout reassigns it. The loop returns only
// once stopped, so it never ends the process on its own. It starts
// before the listener: when the listen fails it is stopped at once,
// and a shard it leased in that moment waits out the heartbeat timeout.
func runWorker(ctx context.Context, addr, join string, drain time.Duration, out io.Writer) error {
	wk := dist.NewWorker(dist.WorkerOptions{Join: join})
	ctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workErr := make(chan error, 1)
	go func() { workErr <- wk.Run(ctx) }()

	var draining atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/live", telemetry.Live)
	mux.HandleFunc("GET /healthz", telemetry.Live)
	mux.HandleFunc("GET /healthz/ready", telemetry.Ready(func() bool { return !draining.Load() && wk.Ready() }))
	mux.Handle("GET /metrics", wk.Registry())

	fmt.Fprintf(out, "vdserved worker: joining %s\n", join)
	return serve(ctx, "vdserved worker", addr, mux, drain, out,
		func() { draining.Store(true); stopWorker() },
		func(context.Context) { stopWorker(); <-workErr })
}
