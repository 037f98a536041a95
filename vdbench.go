// Package vdbench is a benchmark framework for vulnerability detection
// tools, reproducing Antunes & Vieira, "On the Metrics for Benchmarking
// Vulnerability Detection Tools" (DSN 2015).
//
// The package is the public facade over the internal building blocks:
//
//   - a catalogue of 29 candidate benchmark metrics over confusion
//     matrices, with computed property profiles (boundedness, prevalence
//     robustness, chance correction, stability, discriminative power, ...);
//   - a workload generator producing labelled corpora of synthetic web
//     services with seeded injection vulnerabilities, ground truth verified
//     by an execution oracle that probes every sink over the full payload
//     pool (influence-guided, with labels equal to exhaustive search);
//   - a suite of real miniature detection tools (CFG worklist taint
//     SASTs, signature SAST, differential penetration testers) plus
//     calibrated simulated tools;
//   - a campaign harness scoring tools at sink granularity;
//   - usage scenarios with per-scenario criterion weights, an analytical
//     metric selector, and MCDA validation (AHP with encoded expert
//     panels; weighted-sum, weighted-product and TOPSIS baselines).
//
// # Quick start
//
//	corpus, err := vdbench.GenerateWorkload(vdbench.WorkloadConfig{
//		Services:         100,
//		TargetPrevalence: 0.35,
//		Seed:             1,
//	})
//	// handle err
//	tools, err := vdbench.StandardTools()
//	// handle err
//	campaign, err := vdbench.RunCampaignCtx(ctx, corpus, tools, vdbench.CampaignOptions{
//		Seed:           1,
//		Workers:        4,                      // output is identical for every value
//		PerToolTimeout: 30 * time.Second,       // bound each tool invocation
//		Retry:          vdbench.RetryPolicy{MaxRetries: 1},
//		Degraded:       vdbench.DegradedSkip,   // complete with partial results
//	})
//	// handle err
//	recall := vdbench.MustMetric("recall")
//	for _, res := range campaign.Results {
//		v, _ := res.MetricValue(recall)
//		fmt.Printf("%s recall=%.3f (failed cases: %d)\n", res.Tool, v, res.Exec.Failed)
//	}
//
// To reproduce the paper's experiments, see RunExperiment and the
// cmd/vdbench command.
package vdbench

import (
	"context"
	"errors"

	"github.com/dsn2015/vdbench/internal/core"
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/dist"
	"github.com/dsn2015/vdbench/internal/experiments"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// Re-exported core types. The aliases form the public API surface; the
// internal packages stay internal.
type (
	// Confusion is a binary confusion matrix (TP/FP/FN/TN) over sinks.
	Confusion = metrics.Confusion
	// Metric is one candidate benchmark metric with its metadata.
	Metric = metrics.Metric
	// MetricProfile is the computed property profile of a metric.
	MetricProfile = metricprop.Profile
	// PropConfig configures the metric property analysis.
	PropConfig = metricprop.Config
	// WorkloadConfig configures corpus generation.
	WorkloadConfig = workload.Config
	// Corpus is a generated, ground-truth-labelled workload.
	Corpus = workload.Corpus
	// Case is one labelled service of a corpus.
	Case = workload.Case
	// Tool is a vulnerability detection tool under benchmark.
	Tool = detectors.Tool
	// Report is one tool finding.
	Report = detectors.Report
	// Campaign is the scored result of running tools over a corpus.
	Campaign = harness.Campaign
	// ToolResult is one tool's scored campaign outcome.
	ToolResult = harness.ToolResult
	// Scenario is a benchmark usage scenario with criterion weights.
	Scenario = scenario.Scenario
	// Criterion is one characteristic of a good benchmark metric.
	Criterion = scenario.Criterion
	// Selection is a per-scenario metric selection outcome.
	Selection = core.Selection
	// Validation is the MCDA validation outcome for a scenario.
	Validation = core.Validation
	// Service is a workload program in the mini service language.
	Service = svclang.Service
	// ExperimentConfig parameterises the paper experiments E1-E18. It
	// carries no execution policy: the experiments run the standard
	// suite, which never fails a cell, so a policy could change an
	// output only by a deadline firing on a loaded host, under a cache
	// key that does not say so. E18 sets the policies of its
	// fault-injected campaigns itself; library callers set theirs on
	// CampaignOptions.
	ExperimentConfig = experiments.Config
	// ExperimentResult is one experiment's rendered tables and figures.
	// It renders to text, CSV, Markdown or canonical JSON via Render.
	ExperimentResult = experiments.Result
	// ExperimentInfo identifies one reproducible experiment (ID + title).
	ExperimentInfo = experiments.Info
	// CampaignOptions configures fault-tolerant campaign execution for
	// RunCampaignCtx: seed, worker pool, per-tool deadline, retry budget
	// and the degraded-cell scoring policy.
	CampaignOptions = harness.Options
	// RetryPolicy bounds re-execution of retryable tool failures.
	RetryPolicy = harness.RetryPolicy
	// DegradedPolicy decides how the scoring layer treats a (tool, case)
	// cell whose every execution attempt failed.
	DegradedPolicy = harness.DegradedPolicy
	// ExecLedger is the per-tool execution accounting on every ToolResult:
	// attempts, retries, and failed cases split by failure kind.
	ExecLedger = harness.ExecLedger
	// ExecError records the final failure of one (tool, case) cell.
	ExecError = harness.ExecError
	// FailureKind classifies how a cell failed (panic, timeout, error).
	FailureKind = harness.FailureKind
	// CampaignProgressEvent describes one finished (tool, case) cell of a
	// running campaign: monotone done/total counts plus the cell's
	// confusion-matrix delta for incremental metric estimates.
	CampaignProgressEvent = harness.ProgressEvent
	// CampaignProgressFunc receives per-cell progress events; it is called
	// from campaign worker goroutines and must be concurrency-safe and
	// fast (buffer and shed in the listener, not the campaign).
	CampaignProgressFunc = harness.ProgressFunc
	// ContextTool is an optional Tool extension for implementations that
	// observe cancellation mid-analysis; the execution engine passes such
	// tools the per-attempt deadline context.
	ContextTool = detectors.ContextAnalyzer
)

// Degraded-cell scoring policies for CampaignOptions.Degraded.
const (
	// DegradedAbort fails the campaign on the first degraded cell — the
	// historical fail-fast behaviour and the zero value.
	DegradedAbort = harness.DegradedAbort
	// DegradedSkip omits failed cases from the tool's confusion matrices.
	DegradedSkip = harness.DegradedSkip
	// DegradedCountMiss scores every sink of a failed case as unflagged.
	DegradedCountMiss = harness.DegradedCountMiss
)

// Failure kinds recorded in execution ledgers.
const (
	FailPanic   = harness.FailPanic
	FailTimeout = harness.FailTimeout
	FailError   = harness.FailError
)

// Metrics returns the full candidate metric catalogue in presentation
// order.
func Metrics() []Metric { return metrics.Catalog() }

// MetricByID looks a metric up by ID or alias.
func MetricByID(id string) (Metric, bool) { return metrics.ByID(id) }

// MustMetric returns the metric with the given ID and panics when it does
// not exist; intended for fixed IDs in example and test code.
func MustMetric(id string) Metric { return metrics.MustByID(id) }

// GenerateWorkload builds a labelled benchmark corpus. Every sink label is
// verified against the exhaustive ground-truth oracle during generation.
func GenerateWorkload(cfg WorkloadConfig) (*Corpus, error) {
	return workload.Generate(cfg)
}

// ParseServices parses service definitions in the textual mini-language
// format (see the svclang grammar in the README).
func ParseServices(src string) ([]*Service, error) { return svclang.Parse(src) }

// PrintService renders a service in the canonical textual form.
func PrintService(svc *Service) string { return svclang.Print(svc) }

// LoadWorkload builds a labelled corpus from externally authored service
// sources; ground truth is computed by the exhaustive oracle exactly as
// for generated corpora.
func LoadWorkload(src string) (*Corpus, error) { return workload.FromSources(src) }

// StandardTools returns the benchmark campaign's standard tool suite:
// six static tools (five configurations of the CFG taint analyser plus
// the grep-sast signature scanner), two penetration testers and one
// simulated heuristic tool.
func StandardTools() ([]Tool, error) { return detectors.StandardSuite() }

// CombineMode selects how CombineTools merges member findings.
type CombineMode = detectors.CombineMode

// Combination modes for CombineTools.
const (
	Union        = detectors.Union
	Intersection = detectors.Intersection
	Majority     = detectors.Majority
)

// CombineTools builds a tool that merges the findings of at least two
// member tools under the given mode (union raises recall, intersection
// raises precision, majority votes).
func CombineTools(name string, mode CombineMode, members []Tool) (Tool, error) {
	return detectors.NewCombined(name, mode, members)
}

// RunCampaignCtx is the campaign entry point: it executes every tool
// over every corpus case under ctx and scores the reports at sink
// granularity. Execution is fault tolerant — every tool invocation runs
// under panic isolation and, when opts.PerToolTimeout is set, a
// per-attempt deadline; errors the tool marked retryable (MarkRetryable)
// are retried up to opts.Retry.MaxRetries times with deterministic
// backoff. Cells that still fail are handled per opts.Degraded: abort the
// campaign (zero value, the historical behaviour), skip them, or count
// them as misses — under the latter two the campaign always completes
// with partial results and a populated ExecLedger per tool.
//
// The result is byte-identical for every opts.Workers value: per-(tool,
// case) RNG streams are pre-split in serial order and outcomes merged
// back in corpus order. Custom Tool implementations must tolerate
// concurrent Analyze calls on distinct cases (keep per-request state in
// the call frame, as the standard suite does). Cancelling ctx aborts the
// campaign at the next case boundary.
func RunCampaignCtx(ctx context.Context, corpus *Corpus, tools []Tool, opts CampaignOptions) (*Campaign, error) {
	return harness.RunCtx(ctx, corpus, tools, opts)
}

// WithCampaignProgress returns a context carrying fn as the campaign
// progress listener: any campaign executed under the returned context —
// directly via RunCampaignCtx or through RunExperimentCtx — reports each
// finished (tool, case) cell to fn. Reporting is observation only;
// results are byte-identical with or without a listener.
func WithCampaignProgress(ctx context.Context, fn CampaignProgressFunc) context.Context {
	return harness.WithProgress(ctx, fn)
}

// MarkRetryable wraps err so the execution engine may re-run the failing
// attempt (with an identical RNG stream) up to the campaign's retry
// budget. Custom tools wrap transient faults — flaky I/O, resource
// contention — whose repetition is expected to succeed; deterministic
// analysis failures must be returned unwrapped.
func MarkRetryable(err error) error { return detectors.MarkRetryable(err) }

// IsRetryable reports whether err (or any error in its chain) was marked
// retryable via MarkRetryable.
func IsRetryable(err error) bool { return detectors.IsRetryable(err) }

// DefaultPropConfig returns the property-analysis configuration used by
// the published experiment numbers.
func DefaultPropConfig() PropConfig { return metricprop.DefaultConfig() }

// AnalyzeMetrics computes property profiles for the whole metric
// catalogue. The analysis is deterministic in the seed.
func AnalyzeMetrics(cfg PropConfig, seed uint64) ([]MetricProfile, error) {
	return metricprop.AnalyzeCatalog(cfg, stats.NewRNG(seed))
}

// Scenarios returns the benchmark usage scenarios.
func Scenarios() []Scenario { return scenario.Scenarios() }

// ScenarioByID looks a scenario up by ID (see Scenarios for the
// catalogue).
func ScenarioByID(id string) (Scenario, bool) { return scenario.ByID(id) }

// Criteria returns the characteristics of a good benchmark metric used by
// the scenario analysis.
func Criteria() []Criterion { return scenario.Criteria() }

// SelectMetric performs the analytical per-scenario metric selection.
func SelectMetric(s Scenario, profiles []MetricProfile) (Selection, error) {
	return core.Select(s, profiles)
}

// ValidateSelection validates a scenario's metric selection with the
// Analytic Hierarchy Process over an encoded expert panel of the given
// size and judgment-noise level.
func ValidateSelection(s Scenario, profiles []MetricProfile, panelSize int, sigma float64, seed uint64) (Validation, error) {
	return core.Validate(s, profiles, panelSize, sigma, stats.NewRNG(seed))
}

// DefaultExperimentConfig returns the configuration behind the numbers in
// EXPERIMENTS.md.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig returns a reduced configuration for smoke runs
// (same code paths, roughly an order of magnitude faster).
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// ExperimentIDs lists the reproducible experiments (e1..e18) in
// presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// Experiments returns the experiment catalogue (ID and title) in
// presentation order; the serving API exposes it at /v1/experiments.
func Experiments() []ExperimentInfo { return experiments.Catalog() }

// ResultFormats lists the render formats ExperimentResult.Render
// supports ("text", "csv", "markdown", "json"). cmd/vdbench -format and
// the serving API's ?format= parameter accept exactly this set, backed
// by one encoder per format.
func ResultFormats() []string { return experiments.Formats() }

// ExperimentCacheKey returns the content address of an experiment run: a
// SHA-256 over the experiment ID and every result-affecting field of the
// configuration. Workers, the one field left out, is excluded because
// experiment output is byte-identical for every worker count (see
// RunCampaignCtx), which is precisely the invariance that makes
// memoising results sound — the
// serving layer (internal/service, cmd/vdserved) keys its result cache
// and singleflight table on this.
func ExperimentCacheKey(id string, cfg ExperimentConfig) string {
	return experiments.CacheKey(id, cfg)
}

// RunExperimentCtx reproduces one of the paper's tables or figures by ID
// under ctx. Cancellation is observed between experiment stages and,
// inside campaigns, between cases; a cancelled run returns an error
// wrapping ctx.Err(). The serving layer (internal/service) runs every
// job through this entry point so DELETE and shutdown actually stop work.
func RunExperimentCtx(ctx context.Context, id string, cfg ExperimentConfig) (ExperimentResult, error) {
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return ExperimentResult{}, err
	}
	return runner.RunCtx(ctx, id)
}

// RunExperiment reproduces one of the paper's tables or figures by ID.
// It is RunExperimentCtx without cancellation.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return RunExperimentCtx(context.Background(), id, cfg)
}

// RunAllExperimentsCtx reproduces every table and figure under ctx.
// Sharing one call (rather than looping over RunExperimentCtx) reuses the
// corpus, campaign and metric profiles across experiments.
func RunAllExperimentsCtx(ctx context.Context, cfg ExperimentConfig) ([]ExperimentResult, error) {
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return runner.AllCtx(ctx)
}

// RunAllExperiments reproduces every table and figure. It is
// RunAllExperimentsCtx without cancellation.
func RunAllExperiments(cfg ExperimentConfig) ([]ExperimentResult, error) {
	return RunAllExperimentsCtx(context.Background(), cfg)
}

// RunExperimentDistributedCtx is RunExperimentCtx with the benchmark
// campaign executed on the worker fleet behind the coordinator at
// coordinatorURL (a vdserved -coordinator process). Everything outside
// the campaign — metric profiles, selection, MCDA — still runs locally.
// The distributed campaign is byte-identical to the local one, so the
// experiment output (and its cache key) is too. shardCases tunes the
// shard granularity; 0 keeps the coordinator default.
func RunExperimentDistributedCtx(ctx context.Context, id string, cfg ExperimentConfig, coordinatorURL string, shardCases int) (ExperimentResult, error) {
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return ExperimentResult{}, err
	}
	client := dist.NewClient(coordinatorURL)
	client.ShardCases = shardCases
	runner.SetCampaignExecutor(client)
	return runner.RunCtx(ctx, id)
}

// RunAllExperimentsDistributedCtx is RunAllExperimentsCtx with the
// benchmark campaign executed on the worker fleet behind coordinatorURL;
// see RunExperimentDistributedCtx.
func RunAllExperimentsDistributedCtx(ctx context.Context, cfg ExperimentConfig, coordinatorURL string, shardCases int) ([]ExperimentResult, error) {
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	client := dist.NewClient(coordinatorURL)
	client.ShardCases = shardCases
	runner.SetCampaignExecutor(client)
	return runner.AllCtx(ctx)
}

// WilsonInterval computes the Wilson score interval for a binomial rate
// (k successes in n trials) at the given confidence level. Rate metrics
// (recall, precision, ...) are binomial proportions, so this is the
// standard way to put error bars on them.
func WilsonInterval(k, n int, confidence float64) (stats.Interval, error) {
	return stats.Wilson(k, n, confidence)
}

// CompareTools runs McNemar's paired test on two tools' outcomes from the
// same campaign: the statistically appropriate significance test for "do
// these tools classify this workload differently?".
func CompareTools(a, b *ToolResult) (stats.McNemarResult, error) {
	if a == nil || b == nil {
		return stats.McNemarResult{}, errors.New("vdbench: nil tool result")
	}
	codes, err := harness.NewPairCodes(a, b)
	if err != nil {
		return stats.McNemarResult{}, errors.New("vdbench: tools come from different campaigns")
	}
	return codes.McNemar()
}
