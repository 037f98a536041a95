// Package experiments contains one driver per reproduced table and figure
// (E1–E10 plus the E11–E18 extensions, see DESIGN.md). Each driver renders its result through the
// report package; the CLI (cmd/vdbench) and the benchmark harness
// (bench_test.go) both call into this package, so the numbers in a paper
// rerun and in `go test -bench` are byte-identical.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/report"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
	"github.com/dsn2015/vdbench/internal/workpool"
)

// Config parameterises a full experiment run.
type Config struct {
	// Seed drives every random choice in every experiment.
	Seed uint64
	// Services is the campaign corpus size (E3-E5, E7).
	Services int
	// Prevalence is the campaign target prevalence.
	Prevalence float64
	// Prop configures the metric property analysis (E2, E8-E10).
	Prop metricprop.Config
	// BootstrapResamples is used by the discriminative-power study (E7).
	BootstrapResamples int
	// PanelSize and PanelSigma define the encoded expert panel (E9).
	PanelSize  int
	PanelSigma float64
	// StabilityTrials is the per-sigma trial count of the MCDA
	// sensitivity analysis (E10).
	StabilityTrials int
	// Workers sizes every parallel loop of a run. The experiment
	// drivers and E7's tool pairs share one budget of this size; the
	// campaign harness and the metric property catalogue build a budget
	// of their own from it. 0 selects runtime.GOMAXPROCS(0), 1 forces
	// serial execution. Every output is byte-identical for every value
	// (see harness.RunCtx, Runner.e7Fractions,
	// metricprop.AnalyzeCatalog).
	Workers int
	// PerToolTimeout, Retry and Degraded are the campaign execution
	// policy (see harness.Options). Like Workers, they are operational
	// knobs excluded from experiment cache keys: with well-behaved tools
	// they cannot change any output. PerToolTimeout must be zero (no
	// deadline, the default) or at least one second — a tight deadline
	// could make results hardware-dependent while sharing a cache key.
	PerToolTimeout time.Duration
	Retry          harness.RetryPolicy
	Degraded       harness.DegradedPolicy
}

// DefaultConfig returns the configuration used for the published numbers
// in EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Services:           500,
		Prevalence:         0.35,
		Prop:               metricprop.DefaultConfig(),
		BootstrapResamples: 2000,
		PanelSize:          5,
		PanelSigma:         0.1,
		StabilityTrials:    300,
	}
}

// QuickConfig returns a reduced configuration for smoke runs and unit
// tests (an order of magnitude faster, same code paths).
func QuickConfig() Config {
	return Config{
		Seed:       1,
		Services:   80,
		Prevalence: 0.35,
		Prop: metricprop.Config{
			MonotonicitySamples:  400,
			WorkloadSize:         800,
			StabilityTrials:      80,
			DiscriminationTrials: 120,
			Tolerance:            1e-9,
		},
		BootstrapResamples: 300,
		PanelSize:          5,
		PanelSigma:         0.1,
		StabilityTrials:    60,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Services <= 0 {
		return fmt.Errorf("experiments: services must be positive, got %d", c.Services)
	}
	if c.Prevalence < 0 || c.Prevalence > 1 {
		return fmt.Errorf("experiments: prevalence %g out of [0,1]", c.Prevalence)
	}
	if c.BootstrapResamples <= 0 || c.PanelSize <= 0 || c.StabilityTrials <= 0 {
		return errors.New("experiments: sample counts must be positive")
	}
	if c.PanelSigma < 0 {
		return fmt.Errorf("experiments: negative panel sigma %g", c.PanelSigma)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count %d", c.Workers)
	}
	// The run has one worker count. Prop.Workers == 0 inherits it (see
	// propConfig); any other value must agree with it, otherwise the
	// catalogue would run wider than the caller asked behind their back.
	if c.Prop.Workers != 0 && c.Prop.Workers != c.Workers {
		return fmt.Errorf("experiments: inconsistent worker budgets: Prop.Workers=%d vs Workers=%d (set Prop.Workers to 0 to inherit the shared budget)", c.Prop.Workers, c.Workers)
	}
	if c.PerToolTimeout != 0 && c.PerToolTimeout < time.Second {
		return fmt.Errorf("experiments: PerToolTimeout %v below the 1s operational floor (a tight deadline would make cached results hardware-dependent)", c.PerToolTimeout)
	}
	if err := (harness.Options{PerToolTimeout: c.PerToolTimeout, Retry: c.Retry, Degraded: c.Degraded}).Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return c.Prop.Validate()
}

// execOptions assembles the harness execution options for this run's
// campaigns.
func (c Config) execOptions() harness.Options {
	return harness.Options{
		Seed:           c.Seed,
		Workers:        c.Workers,
		PerToolTimeout: c.PerToolTimeout,
		Retry:          c.Retry,
		Degraded:       c.Degraded,
	}
}

// Result is one experiment's rendered output.
type Result struct {
	// ID is the experiment identifier ("e1".."e18").
	ID string
	// Title describes the table/figure.
	Title string
	// Tables and Figures hold the rendered artefacts.
	Tables  []*report.Table
	Figures []*report.Figure
}

// String renders all artefacts of the result.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n\n", strings.ToUpper(r.ID), r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, f := range r.Figures {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Runner executes experiments, caching the expensive shared inputs (the
// metric property profiles and the benchmark campaign) across drivers.
// A Runner is safe for concurrent use: AllCtx runs independent drivers
// on the runner's worker budget, and the lazy inputs are computed exactly once
// behind sync.Once gates (results and errors are memoised — every input
// is a deterministic function of the configuration, so a retry would fail
// identically).
type Runner struct {
	cfg    Config
	budget *workpool.Budget
	exec   CampaignExecutor

	profilesOnce sync.Once
	profiles     []metricprop.Profile
	profilesErr  error

	campaignMu   sync.Mutex
	campaignDone bool
	campaign     *harness.Campaign
	campaignErr  error

	ownCampaignMu sync.Mutex // held while a driver's own campaign runs
}

// NewRunner builds a runner. It fails fast on invalid configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, budget: workpool.New(cfg.Workers)}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// CampaignExecutor abstracts how the benchmark campaign is executed.
// The default is the in-process harness; internal/dist's Client
// satisfies this structurally to run the campaign on a coordinator's
// worker fleet instead. Either way the result is byte-identical — that
// is the distributed subsystem's contract — so experiments downstream
// of the campaign cannot tell the difference.
type CampaignExecutor interface {
	ExecuteCampaign(ctx context.Context, wcfg workload.Config, suite string, opts harness.Options) (*harness.Campaign, error)
}

// SetCampaignExecutor routes campaign execution through exec (nil
// restores the in-process default). Call before the first Campaign use;
// the campaign is memoised, so later changes have no effect.
func (r *Runner) SetCampaignExecutor(exec CampaignExecutor) {
	r.campaignMu.Lock()
	defer r.campaignMu.Unlock()
	r.exec = exec
}

// propConfig resolves the property-analysis configuration against the
// configured worker count: Prop.Workers == 0 inherits cfg.Workers
// (Validate rejects any other mismatch).
func (r *Runner) propConfig() metricprop.Config {
	p := r.cfg.Prop
	if p.Workers == 0 {
		p.Workers = r.cfg.Workers
	}
	return p
}

// Profiles returns the property profiles of the full metric catalogue,
// computing them on first use.
func (r *Runner) Profiles() ([]metricprop.Profile, error) {
	r.profilesOnce.Do(func() {
		profiles, err := metricprop.AnalyzeCatalog(r.propConfig(), stats.NewRNG(r.cfg.Seed))
		if err != nil {
			r.profilesErr = fmt.Errorf("experiments: profile catalogue: %w", err)
			return
		}
		r.profiles = profiles
	})
	return r.profiles, r.profilesErr
}

// CampaignCtx returns the shared benchmark campaign, running it under
// ctx on first use. Deterministic results and failures are memoised —
// every input is a pure function of the configuration, so a retry would
// fail identically. A cancellation is NOT memoised: it reflects the
// caller's context, not the configuration, so a later caller with a live
// context computes the campaign normally.
func (r *Runner) CampaignCtx(ctx context.Context) (*harness.Campaign, error) {
	r.campaignMu.Lock()
	defer r.campaignMu.Unlock()
	if r.campaignDone {
		return r.campaign, r.campaignErr
	}
	camp, err := r.runCampaign(ctx)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	r.campaign, r.campaignErr, r.campaignDone = camp, err, true
	return r.campaign, r.campaignErr
}

// workloadConfig is the configuration of the benchmark corpus.
func (r *Runner) workloadConfig() workload.Config {
	return workload.Config{
		Services:         r.cfg.Services,
		TargetPrevalence: r.cfg.Prevalence,
		Seed:             r.cfg.Seed,
	}
}

func (r *Runner) runCampaign(ctx context.Context) (*harness.Campaign, error) {
	if r.exec != nil {
		campaign, err := r.exec.ExecuteCampaign(ctx, r.workloadConfig(), "standard", r.cfg.execOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments: campaign: %w", err)
		}
		return campaign, nil
	}
	corpus, err := workload.Generate(r.workloadConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus: %w", err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		return nil, fmt.Errorf("experiments: tool suite: %w", err)
	}
	campaign, err := harness.RunCtx(ctx, corpus, tools, r.cfg.execOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign: %w", err)
	}
	return campaign, nil
}

// runOwnCampaign runs a campaign that a driver owns (E13's skewed corpus,
// E14's combinations, E18's fault sweep), as opposed to the shared one of
// CampaignCtx, and runs one at a time per runner. Each holds a few MB of
// live state while it runs, mostly outcome arenas, and the campaign
// harness fills the worker budget on its own, so running two side by
// side under AllCtx raises the peak heap without finishing sooner.
// Campaigns are deterministic, so the order drivers take turns in
// changes no output. Callers build their tools, and fetch the shared
// campaign they replay, before they call it.
func (r *Runner) runOwnCampaign(ctx context.Context, corpus *workload.Corpus, tools []detectors.Tool, opts harness.Options) (*harness.Campaign, error) {
	r.ownCampaignMu.Lock()
	defer r.ownCampaignMu.Unlock()
	return harness.RunCtx(ctx, corpus, tools, opts)
}

// driver is one experiment entry point.
type driver struct {
	id    string
	title string
	run   func(*Runner, context.Context) (Result, error)
}

// drivers returns the experiment registry in presentation order.
func drivers() []driver {
	return []driver{
		{"e1", "Metric catalogue", (*Runner).E1MetricCatalog},
		{"e2", "Computed metric property matrix", (*Runner).E2MetricProperties},
		{"e3", "Campaign raw results (confusion matrices)", (*Runner).E3Campaign},
		{"e4", "Metric values per tool", (*Runner).E4MetricValues},
		{"e5", "Metric-induced tool rankings and their disagreement", (*Runner).E5Rankings},
		{"e6", "Prevalence sensitivity of the metrics", (*Runner).E6Prevalence},
		{"e7", "Discriminative power under workload resampling", (*Runner).E7Discrimination},
		{"e8", "Scenario-based analytical metric selection", (*Runner).E8ScenarioSelection},
		{"e9", "AHP validation with the encoded expert panel", (*Runner).E9AHP},
		{"e10", "MCDA sensitivity to expert disagreement", (*Runner).E10Sensitivity},
		{"e11", "MCDA method agreement (extension)", (*Runner).E11MethodAgreement},
		{"e12", "Threshold-free metrics (extension)", (*Runner).E12ThresholdFree},
		{"e13", "Micro vs macro averaging (extension)", (*Runner).E13MicroMacro},
		{"e14", "Tool combination (extension)", (*Runner).E14Combination},
		{"e15", "Decision impact of metric selection (extension)", (*Runner).E15DecisionImpact},
		{"e16", "Failure-mechanism map (extension)", (*Runner).E16FailureMap},
		{"e17", "Metric redundancy clusters (extension)", (*Runner).E17Redundancy},
		{"e18", "Metric distortion under injected tool failure (extension)", (*Runner).E18Degradation},
	}
}

// IDs returns the experiment IDs in presentation order.
func IDs() []string {
	ds := drivers()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.id
	}
	return out
}

// RunCtx executes one experiment by ID under ctx. Cancellation is
// observed between experiment stages and, inside campaigns, between
// cases; a cancelled run returns an error wrapping ctx.Err().
func (r *Runner) RunCtx(ctx context.Context, id string) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id = strings.ToLower(strings.TrimSpace(id))
	for _, d := range drivers() {
		if d.id == id {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			return d.run(r, ctx)
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// AllCtx executes every experiment under ctx and returns the results in
// presentation order. Independent drivers run concurrently on the
// runner's worker budget (Config.Workers); results land in per-driver slots, so
// the output is byte-identical to a serial run at every worker count. On
// failure the error of the earliest driver (in presentation order) that
// failed is returned, matching what serial execution would report.
// Cancelling ctx stops the run between drivers and between campaign
// cases.
func (r *Runner) AllCtx(ctx context.Context) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ds := drivers()
	out := make([]Result, len(ds))
	err := r.budget.ForEach(len(ds), func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", ds[i].id, err)
		}
		res, err := ds[i].run(r, ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", ds[i].id, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// campaignMetricIDs is the metric subset shown in the campaign tables
// (the full catalogue would be unreadable; this is the set the paper-style
// tool tables report).
func campaignMetricIDs() []string {
	return []string{
		"recall", "precision", "f1", "f2", "f0.5", "accuracy",
		"specificity", "fpr", "mcc", "informedness", "markedness", "kappa",
	}
}

// sortedKindNames returns sink kind names sorted for deterministic output.
func sortedKindNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
