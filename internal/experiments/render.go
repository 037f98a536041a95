package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/dsn2015/vdbench/internal/report"
)

// Info identifies one experiment of the registry.
type Info struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Catalog returns the experiment registry (ID and title) in presentation
// order.
func Catalog() []Info {
	ds := drivers()
	out := make([]Info, len(ds))
	for i, d := range ds {
		out[i] = Info{ID: d.id, Title: d.title}
	}
	return out
}

// Formats lists the render formats supported by Result.Render, shared by
// cmd/vdbench and the service API.
func Formats() []string { return []string{"text", "csv", "markdown", "json"} }

// Render renders the result in one of Formats: "text" is the aligned
// form of String; "csv" and "markdown" render the tables (figures keep
// their text form); "json" is the canonical JSON encoding. Both the CLI
// and the serving API emit exactly this string, so a cached response is
// byte-identical to a cold run.
func (r Result) Render(format string) (string, error) {
	var sb strings.Builder
	switch format {
	case "text":
		return r.String(), nil
	case "csv":
		for _, t := range r.Tables {
			sb.WriteString(t.CSV())
			sb.WriteByte('\n')
		}
		for _, f := range r.Figures {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	case "markdown":
		for _, t := range r.Tables {
			sb.WriteString(t.Markdown())
			sb.WriteByte('\n')
		}
		for _, f := range r.Figures {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	case "json":
		b, err := r.JSON()
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	default:
		return "", fmt.Errorf("experiments: unknown format %q (want %s)", format, strings.Join(Formats(), ", "))
	}
}

// JSON returns the canonical JSON encoding of the result: the one
// encoder behind `cmd/vdbench -format json` and the service API result
// endpoint. Encoding is deterministic (struct-ordered fields, nil slices
// normalised to empty) and non-finite figure points become null.
func (r Result) JSON() ([]byte, error) {
	tables := r.Tables
	if tables == nil {
		tables = []*report.Table{}
	}
	figures := r.Figures
	if figures == nil {
		figures = []*report.Figure{}
	}
	return json.MarshalIndent(struct {
		ID      string           `json:"id"`
		Title   string           `json:"title"`
		Tables  []*report.Table  `json:"tables"`
		Figures []*report.Figure `json:"figures"`
	}{r.ID, r.Title, tables, figures}, "", "  ")
}

// CacheKey returns the content address of an experiment run: a SHA-256
// over the experiment ID and a canonical field-by-field encoding of the
// configuration. Workers and Prop.Workers are deliberately excluded —
// every output is byte-identical for every worker count (see
// harness.RunCtx, Runner.e7Fractions, metricprop.AnalyzeCatalog) — so
// runs that differ only in their worker budget share one key; that
// invariance is what makes memoising experiment results sound. The
// execution-policy fields (PerToolTimeout, Retry, Degraded) are excluded
// for the same reason: with the well-behaved standard suite no cell ever
// fails, so the policy cannot reach any output (Config.Validate pins
// PerToolTimeout to zero or >= 1s so a deadline can never fire on a
// healthy tool). Every other Config field must be folded in here
// (TestCacheKeyCoversEveryConfigField enforces this by reflection).
func CacheKey(id string, cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "vdbench-experiment-v1\nid=%s\n", strings.ToLower(strings.TrimSpace(id)))
	fmt.Fprintf(h, "seed=%d\nservices=%d\nprevalence=%.17g\n", cfg.Seed, cfg.Services, cfg.Prevalence)
	fmt.Fprintf(h, "prop.monotonicity=%d\nprop.workload=%d\nprop.stability=%d\nprop.discrimination=%d\nprop.tolerance=%.17g\n",
		cfg.Prop.MonotonicitySamples, cfg.Prop.WorkloadSize, cfg.Prop.StabilityTrials, cfg.Prop.DiscriminationTrials, cfg.Prop.Tolerance)
	fmt.Fprintf(h, "bootstrap=%d\npanel.size=%d\npanel.sigma=%.17g\nstability=%d\n",
		cfg.BootstrapResamples, cfg.PanelSize, cfg.PanelSigma, cfg.StabilityTrials)
	return hex.EncodeToString(h.Sum(nil))
}
