package detectors

import (
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// ParametricConfig defines a simulated tool by its intrinsic detection
// probabilities. Unlike the real mini-tools, a parametric tool reads the
// case labels: it flags each truly vulnerable sink with the
// difficulty-dependent true-positive probability and each clean sink with
// the false-positive probability. Experiments that must control tool
// quality exactly (prevalence sweeps, stability studies) use these.
type ParametricConfig struct {
	// Name is the tool's display name.
	Name string
	// TPR maps workload difficulty to the probability of detecting a
	// vulnerable sink of that difficulty. Missing difficulties default to
	// DefaultTPR.
	TPR map[workload.Difficulty]float64
	// DefaultTPR is the detection probability when TPR has no entry.
	DefaultTPR float64
	// FPR is the probability of flagging a clean sink.
	FPR float64
}

// Validate reports whether every probability is in [0, 1].
func (c ParametricConfig) Validate() error {
	if c.Name == "" {
		return errors.New("detectors: parametric tool needs a name")
	}
	check := func(p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("detectors: probability %g out of [0,1]", p)
		}
		return nil
	}
	if err := check(c.DefaultTPR); err != nil {
		return err
	}
	if err := check(c.FPR); err != nil {
		return err
	}
	for d, p := range c.TPR {
		if err := check(p); err != nil {
			return fmt.Errorf("difficulty %s: %w", d, err)
		}
	}
	return nil
}

type parametric struct {
	cfg ParametricConfig
}

var _ Tool = (*parametric)(nil)

// NewParametric builds a simulated tool. It returns an error for invalid
// probabilities.
func NewParametric(cfg ParametricConfig) (Tool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &parametric{cfg: cfg}, nil
}

func (p *parametric) Name() string { return p.cfg.Name }

func (p *parametric) Class() Class { return ClassSimulated }

// Analyze implements Tool. The RNG drives the per-sink Bernoulli draws;
// callers provide a deterministic stream, making campaigns reproducible.
func (p *parametric) Analyze(cs workload.Case, rng *stats.RNG) ([]Report, error) {
	if cs.Service == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", p.cfg.Name)
	}
	if rng == nil {
		return nil, fmt.Errorf("detectors: %s: simulated tool needs an RNG", p.cfg.Name)
	}
	var reports []Report
	for _, tr := range cs.Truths {
		var flag bool
		var conf float64
		if tr.Vulnerable {
			tpr, ok := p.cfg.TPR[cs.Difficulty]
			if !ok {
				tpr = p.cfg.DefaultTPR
			}
			flag = rng.Bernoulli(tpr)
			conf = 0.55 + 0.4*rng.Float64() // true hits: mid-to-high confidence
		} else {
			flag = rng.Bernoulli(p.cfg.FPR)
			conf = 0.3 + 0.4*rng.Float64() // false alarms: lower confidence
		}
		if flag {
			reports = append(reports, Report{
				Service:    cs.Service.Name,
				SinkID:     tr.SinkID,
				Kind:       tr.Kind,
				Confidence: conf,
			})
		}
	}
	return reports, nil
}
