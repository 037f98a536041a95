package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// Case is one generated service with its verified ground truth.
type Case struct {
	// Service is the generated program.
	Service *svclang.Service
	// Template names the pattern the service was built from.
	Template string
	// Difficulty is the template's difficulty bucket.
	Difficulty Difficulty
	// Truths is the oracle-computed ground truth, one entry per sink in
	// sink-ID order.
	Truths []svclang.GroundTruth
}

// VulnerableSinks returns how many sinks of the case are vulnerable.
func (c Case) VulnerableSinks() int {
	n := 0
	for _, t := range c.Truths {
		if t.Vulnerable {
			n++
		}
	}
	return n
}

// Corpus is a generated benchmark workload.
type Corpus struct {
	// Cases lists the generated services in generation order.
	Cases []Case
	// Config echoes the generation parameters.
	Config Config
}

// TotalSinks returns the number of sinks across all cases.
func (c *Corpus) TotalSinks() int {
	n := 0
	for _, cs := range c.Cases {
		n += len(cs.Truths)
	}
	return n
}

// VulnerableSinks returns the number of vulnerable sinks across all cases.
func (c *Corpus) VulnerableSinks() int {
	n := 0
	for _, cs := range c.Cases {
		n += cs.VulnerableSinks()
	}
	return n
}

// Prevalence returns the fraction of sinks that are vulnerable.
func (c *Corpus) Prevalence() float64 {
	total := c.TotalSinks()
	if total == 0 {
		return 0
	}
	return float64(c.VulnerableSinks()) / float64(total)
}

// Sources renders the whole corpus in the textual service format, suitable
// for writing to disk and re-parsing.
func (c *Corpus) Sources() string {
	var sb strings.Builder
	for _, cs := range c.Cases {
		sb.WriteString(svclang.Print(cs.Service))
		sb.WriteString("\n")
	}
	return sb.String()
}

// DifficultyMix sets the fraction of services drawn from each bucket. The
// three fractions must sum to 1 (within rounding tolerance).
type DifficultyMix struct {
	Easy   float64
	Medium float64
	Hard   float64
}

// DefaultMix mirrors the balance of the public injection test suites:
// mostly straightforward cases with a meaningful hard tail.
func DefaultMix() DifficultyMix {
	return DifficultyMix{Easy: 0.4, Medium: 0.35, Hard: 0.25}
}

// Validate reports whether the mix is a probability distribution.
func (m DifficultyMix) Validate() error {
	for _, f := range []float64{m.Easy, m.Medium, m.Hard} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload: mix fraction %g out of [0,1]", f)
		}
	}
	if math.Abs(m.Easy+m.Medium+m.Hard-1) > 1e-9 {
		return fmt.Errorf("workload: mix fractions sum to %g, want 1", m.Easy+m.Medium+m.Hard)
	}
	return nil
}

// Config parameterises corpus generation.
type Config struct {
	// Services is the number of services to generate.
	Services int
	// TargetPrevalence is the desired fraction of vulnerable sinks. The
	// realised prevalence differs slightly because some templates carry
	// mandatory safe sinks.
	TargetPrevalence float64
	// Kinds restricts the sink kinds used; empty means all kinds.
	Kinds []svclang.SinkKind
	// Mix is the difficulty mix; the zero value means DefaultMix.
	Mix DifficultyMix
	// Seed drives all random choices.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Services <= 0 {
		return fmt.Errorf("workload: services must be positive, got %d", c.Services)
	}
	if c.TargetPrevalence < 0 || c.TargetPrevalence > 1 {
		return fmt.Errorf("workload: target prevalence %g out of [0,1]", c.TargetPrevalence)
	}
	for _, k := range c.Kinds {
		if !slices.Contains(svclang.AllSinkKinds(), k) {
			return fmt.Errorf("workload: unknown sink kind %d", int(k))
		}
	}
	mix := c.Mix
	if mix == (DifficultyMix{}) {
		mix = DefaultMix()
	}
	return mix.Validate()
}

// ErrLabelMismatch reports that a template's declared expectation
// disagreed with the oracle — a bug in the template library, never
// tolerated silently.
var ErrLabelMismatch = errors.New("workload: template expectation disagrees with ground-truth oracle")

// Generate builds a corpus. Every case's template-declared labels are
// verified against the ground-truth oracle; any disagreement aborts
// generation with ErrLabelMismatch.
func Generate(cfg Config) (*Corpus, error) {
	return generate(cfg, compile.NewEngine())
}

// generate is Generate on a caller-supplied engine: the seam through
// which tests label a corpus on the test-only reference.NewEngine and
// require it deep-equal to the production one. One engine serves the whole
// generation run: the oracle's probe search dominates corpus cost, and
// the engine compiles each service once across its probe executions
// (while the process-wide oracle cache elides repeat derivations of
// identical bodies entirely).
func generate(cfg Config, eng *compile.Engine) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mix := cfg.Mix
	if mix == (DifficultyMix{}) {
		mix = DefaultMix()
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = svclang.AllSinkKinds()
	}
	rng := stats.NewRNG(cfg.Seed)
	corpus := &Corpus{Config: cfg}
	buckets := map[Difficulty][]Template{
		Easy:   TemplatesByDifficulty(Easy),
		Medium: TemplatesByDifficulty(Medium),
		Hard:   TemplatesByDifficulty(Hard),
	}
	weights := []float64{mix.Easy, mix.Medium, mix.Hard}
	order := []Difficulty{Easy, Medium, Hard}

	// Feedback steering: several templates carry mandatory safe sinks
	// (constant sinks, dead branches, guarded else-arms), which dilutes a
	// naive Bernoulli draw below the target. Choosing each case's variant
	// by comparing realised prevalence against the target keeps the corpus
	// on target up to the structural ceiling.
	totalSinks, vulnSinks := 0, 0
	for i := 0; i < cfg.Services; i++ {
		difficulty := order[rng.Choice(weights)]
		kind := kinds[rng.Intn(len(kinds))]
		tpl := pickTemplate(rng, buckets[difficulty], kind)
		vulnerable := float64(vulnSinks) < cfg.TargetPrevalence*float64(totalSinks+1)
		name := fmt.Sprintf("%s_%s_%04d", sanitizeName(tpl.Name), kind, i)
		svc, expected := tpl.Build(name, kind, vulnerable)
		truths, err := eng.Analyze(svc)
		if err != nil {
			return nil, fmt.Errorf("workload: analyse %s: %w", name, err)
		}
		if len(truths) != len(expected) {
			return nil, fmt.Errorf("%w: %s declares %d sinks, oracle sees %d", ErrLabelMismatch, name, len(expected), len(truths))
		}
		for j, want := range expected {
			if truths[j].Vulnerable != want {
				return nil, fmt.Errorf("%w: %s sink %d: template says %v, oracle says %v", ErrLabelMismatch, name, j, want, truths[j].Vulnerable)
			}
		}
		for _, tr := range truths {
			totalSinks++
			if tr.Vulnerable {
				vulnSinks++
			}
		}
		corpus.Cases = append(corpus.Cases, Case{
			Service:    svc,
			Template:   tpl.Name,
			Difficulty: difficulty,
			Truths:     truths,
		})
	}
	return corpus, nil
}

// pickTemplate draws a template from the bucket that supports the kind.
// Every bucket contains at least one all-kinds template, so the loop
// terminates.
func pickTemplate(rng *stats.RNG, bucket []Template, kind svclang.SinkKind) Template {
	var eligible []Template
	for _, t := range bucket {
		if t.SupportsKind(kind) {
			eligible = append(eligible, t)
		}
	}
	return eligible[rng.Intn(len(eligible))]
}

// sanitizeName converts a template name to an identifier-safe fragment.
func sanitizeName(s string) string {
	return strings.ReplaceAll(s, "-", "_")
}

// ByKind groups ground-truth-labelled sinks per sink kind, for per-class
// metric aggregation.
func (c *Corpus) ByKind() map[svclang.SinkKind]int {
	out := make(map[svclang.SinkKind]int)
	for _, cs := range c.Cases {
		for _, tr := range cs.Truths {
			out[tr.Kind]++
		}
	}
	return out
}
