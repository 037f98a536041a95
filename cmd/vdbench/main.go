// Command vdbench reproduces the paper's tables and figures (experiments
// E1-E10, see DESIGN.md).
//
// Usage:
//
//	vdbench [flags] <experiment-id>|all
//
// Examples:
//
//	vdbench e4              # metric values per tool, default config
//	vdbench -quick all      # every experiment at reduced sample sizes
//	vdbench -format csv e5  # CSV output for downstream plotting
//	vdbench -seed 7 -services 1000 e3
//	vdbench -workers 8 e3   # campaign worker pool; output is identical
//	vdbench -tool-timeout 2s -retries 1 -degraded skip e18
//	vdbench -distributed http://127.0.0.1:8344 e3
//	                        # run the campaign on a vdserved -coordinator
//	                        # worker fleet; output is byte-identical
//
// SIGINT/SIGTERM abort the running campaign at its next (tool, case)
// cell via the context-first execution engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/dsn2015/vdbench"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vdbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vdbench", flag.ContinueOnError)
	var (
		quick        = fs.Bool("quick", false, "use the reduced smoke-run configuration")
		seed         = fs.Uint64("seed", 0, "override the experiment seed (0 = keep default)")
		services     = fs.Int("services", 0, "override the campaign corpus size (0 = keep default)")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "campaign worker-pool size (output is identical for every value)")
		toolTimeout  = fs.Duration("tool-timeout", 0, "per-tool deadline for each campaign case (0 = none, otherwise >= 1s)")
		retries      = fs.Int("retries", 0, "extra attempts for tool errors marked retryable")
		retryBackoff = fs.Duration("retry-backoff", 0, "wait before the first retry (doubles per retry)")
		degraded     = fs.String("degraded", "abort", "policy for cases a tool failed on: abort, skip or count-miss")
		format       = fs.String("format", "text", "output format: text, csv, markdown or json (tables only for csv/markdown)")
		outDir       = fs.String("out", "", "also write per-experiment artefacts (.txt, .csv, .svg) into this directory")
		list         = fs.Bool("list", false, "list the available experiments and exit")
		distributed  = fs.String("distributed", "", "coordinator base URL; runs the benchmark campaign on its worker fleet (output is byte-identical to a local run)")
		shardCases   = fs.Int("shard-cases", 0, "corpus cases per distributed shard (0 = coordinator default; only with -distributed)")
	)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: vdbench [flags] <experiment-id>|all\n\nexperiments: %s\n\nflags:\n",
			strings.Join(vdbench.ExperimentIDs(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range vdbench.ExperimentIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment ID, got %d arguments", fs.NArg())
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d (campaign output is identical for every positive value)", *workers)
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
	if *shardCases < 0 {
		return fmt.Errorf("-shard-cases must be non-negative, got %d", *shardCases)
	}
	if *shardCases > 0 && *distributed == "" {
		return fmt.Errorf("-shard-cases only applies with -distributed")
	}
	policy, err := vdbench.ParseDegradedPolicy(*degraded)
	if err != nil {
		return err
	}
	cfg := vdbench.DefaultExperimentConfig()
	if *quick {
		cfg = vdbench.QuickExperimentConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *services != 0 {
		cfg.Services = *services
	}
	cfg.Workers = *workers
	cfg.PerToolTimeout = *toolTimeout
	cfg.Retry = vdbench.RetryPolicy{MaxRetries: *retries, Backoff: *retryBackoff}
	cfg.Degraded = policy
	target := strings.ToLower(fs.Arg(0))

	// Ctrl-C aborts the campaign at its next (tool, case) cell rather
	// than killing the process mid-write.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []vdbench.ExperimentResult
	switch {
	case target == "all" && *distributed != "":
		all, err := vdbench.RunAllExperimentsDistributedCtx(ctx, cfg, *distributed, *shardCases)
		if err != nil {
			return err
		}
		results = all
	case target == "all":
		all, err := vdbench.RunAllExperimentsCtx(ctx, cfg)
		if err != nil {
			return err
		}
		results = all
	case *distributed != "":
		res, err := vdbench.RunExperimentDistributedCtx(ctx, target, cfg, *distributed, *shardCases)
		if err != nil {
			return err
		}
		results = []vdbench.ExperimentResult{res}
	default:
		res, err := vdbench.RunExperimentCtx(ctx, target, cfg)
		if err != nil {
			return err
		}
		results = []vdbench.ExperimentResult{res}
	}
	for _, res := range results {
		if err := render(out, res, *format); err != nil {
			return err
		}
		if *outDir != "" {
			if err := writeArtefacts(*outDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeArtefacts stores an experiment's rendered forms on disk: the full
// text, one CSV per table, and one SVG per figure.
func writeArtefacts(dir string, res vdbench.ExperimentResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	write := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return nil
	}
	if err := write(res.ID+".txt", res.String()); err != nil {
		return err
	}
	if data, err := res.JSON(); err == nil {
		if err := write(res.ID+".json", string(data)+"\n"); err != nil {
			return err
		}
	}
	for i, t := range res.Tables {
		if err := write(fmt.Sprintf("%s_table%d.csv", res.ID, i+1), t.CSV()); err != nil {
			return err
		}
	}
	for i, f := range res.Figures {
		if err := write(fmt.Sprintf("%s_figure%d.svg", res.ID, i+1), f.SVG()); err != nil {
			return err
		}
	}
	return nil
}

// render writes the result in the requested format. All formats —
// including JSON — come from ExperimentResult.Render, the same code path
// the serving API (cmd/vdserved) responds with.
func render(out io.Writer, res vdbench.ExperimentResult, format string) error {
	s, err := res.Render(format)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, s)
	return err
}
