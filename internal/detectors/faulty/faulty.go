// Package faulty wraps detection tools with seeded, deterministic fault
// injection. Real benchmark campaigns routinely hit tools that crash,
// hang, flake or misreport; this package reproduces those failure modes
// on demand so the harness's fault-tolerant execution engine and the
// degradation experiment (E18) can measure exactly how partial tool
// failure distorts the published metrics.
//
// Fault placement is a pure function of (Seed, tool name, service name):
// whether a case is affected never depends on RNG draw order, worker
// count, or attempt number, so campaigns with injected faults stay
// byte-identical across serial and parallel execution.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// Mode selects the injected failure behaviour on affected cases.
type Mode int

const (
	// ModePanic panics inside Analyze, exercising the engine's panic
	// isolation.
	ModePanic Mode = iota + 1
	// ModeHang blocks until the attempt context is cancelled, exercising
	// per-tool deadlines. The wrapper is context-aware: once the deadline
	// fires it returns promptly, so hung cases do not leak goroutines.
	ModeHang
	// ModeTransient fails the first FailuresBeforeSuccess attempts of an
	// affected case with a retryable error, then delegates to the wrapped
	// tool — the canonical flaky tool the retry policy exists for.
	ModeTransient
	// ModeByzantine returns plausible but wrong findings: the complement
	// of the wrapped tool's reports over the case's sink set. No error is
	// surfaced; this is the failure mode ledgers cannot catch and E18
	// uses it as the worst-case distortion bound.
	ModeByzantine
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeHang:
		return "hang"
	case ModeTransient:
		return "transient"
	case ModeByzantine:
		return "byzantine"
	default:
		return "unknown"
	}
}

// Config parameterises a fault-injecting wrapper.
type Config struct {
	// Mode is the failure behaviour on affected cases.
	Mode Mode
	// Rate is the fraction of cases affected, in [0, 1]. Cases are
	// selected by a deterministic hash of (Seed, tool name, service
	// name); Rate 1 affects every case.
	Rate float64
	// Seed decorrelates fault placement between wrappers that share a
	// tool name and rate.
	Seed uint64
	// FailuresBeforeSuccess is how many attempts of an affected case fail
	// before the wrapped tool runs (ModeTransient only; default 1). A
	// retry budget below this leaves the case permanently failed.
	FailuresBeforeSuccess int
}

func (c Config) validate() error {
	switch c.Mode {
	case ModePanic, ModeHang, ModeTransient, ModeByzantine:
	default:
		return fmt.Errorf("faulty: unknown mode %d", int(c.Mode))
	}
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("faulty: rate %g out of [0,1]", c.Rate)
	}
	if c.FailuresBeforeSuccess < 0 {
		return errors.New("faulty: negative FailuresBeforeSuccess")
	}
	return nil
}

// tool is the fault-injecting wrapper. It presents the wrapped tool's
// name and class so campaign results line up column-for-column with the
// fault-free baseline.
type tool struct {
	inner detectors.Tool
	cfg   Config

	mu       sync.Mutex
	attempts map[string]int // per-service transient attempt counter
}

var (
	_ detectors.Tool               = (*tool)(nil)
	_ detectors.ContextAnalyzer    = (*tool)(nil)
	_ detectors.CompileCacheable   = (*tool)(nil)
	_ detectors.ExecEngineBindable = (*tool)(nil)
)

// Wrap decorates inner with deterministic fault injection. A wrapper
// instance carries per-case attempt state for ModeTransient, so use a
// fresh wrapper per campaign when reproducing runs.
func Wrap(inner detectors.Tool, cfg Config) (detectors.Tool, error) {
	if inner == nil {
		return nil, errors.New("faulty: nil inner tool")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.FailuresBeforeSuccess == 0 {
		cfg.FailuresBeforeSuccess = 1
	}
	return &tool{inner: inner, cfg: cfg, attempts: map[string]int{}}, nil
}

func (t *tool) Name() string           { return t.inner.Name() }
func (t *tool) Class() detectors.Class { return t.inner.Class() }

// WithCompileCache forwards compile-cache binding to the wrapped tool
// when it supports it, preserving the harness's shared-lowering
// optimisation under fault injection.
func (t *tool) WithCompileCache(cc *cfg.Cache) detectors.Tool {
	cct, ok := t.inner.(detectors.CompileCacheable)
	if !ok {
		return t
	}
	return &tool{inner: cct.WithCompileCache(cc), cfg: t.cfg, attempts: map[string]int{}}
}

// WithExecEngine forwards execution-engine binding to the wrapped tool
// when it supports it, so a wrapped dynamic tool executes through the
// campaign's shared engine instead of compiling every service privately.
func (t *tool) WithExecEngine(eng *compile.Engine) detectors.Tool {
	et, ok := t.inner.(detectors.ExecEngineBindable)
	if !ok {
		return t
	}
	return &tool{inner: et.WithExecEngine(eng), cfg: t.cfg, attempts: map[string]int{}}
}

// Analyze implements detectors.Tool. ModeHang under a plain Analyze call
// blocks indefinitely — always run hang-wrapped tools through a
// context-aware engine with a deadline.
func (t *tool) Analyze(cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	return t.AnalyzeContext(context.Background(), cs, rng)
}

// AnalyzeContext implements detectors.ContextAnalyzer.
func (t *tool) AnalyzeContext(ctx context.Context, cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	if cs.Service == nil {
		return nil, errors.New("faulty: nil service")
	}
	if !t.affected(cs.Service.Name) {
		return t.analyzeInner(ctx, cs, rng)
	}
	switch t.cfg.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faulty: injected panic in %s on %s", t.inner.Name(), cs.Service.Name))
	case ModeHang:
		<-ctx.Done()
		return nil, ctx.Err()
	case ModeTransient:
		t.mu.Lock()
		t.attempts[cs.Service.Name]++
		n := t.attempts[cs.Service.Name]
		t.mu.Unlock()
		if n <= t.cfg.FailuresBeforeSuccess {
			return nil, detectors.MarkRetryable(fmt.Errorf(
				"faulty: injected transient fault in %s on %s (attempt %d)", t.inner.Name(), cs.Service.Name, n))
		}
		return t.analyzeInner(ctx, cs, rng)
	case ModeByzantine:
		reports, err := t.analyzeInner(ctx, cs, rng)
		if err != nil {
			return nil, err
		}
		return complement(cs, reports), nil
	default:
		return nil, fmt.Errorf("faulty: unknown mode %d", int(t.cfg.Mode))
	}
}

// analyzeInner delegates to the wrapped tool, preferring its
// context-aware entry point when it has one.
func (t *tool) analyzeInner(ctx context.Context, cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	if ca, ok := t.inner.(detectors.ContextAnalyzer); ok {
		return ca.AnalyzeContext(ctx, cs, rng)
	}
	return t.inner.Analyze(cs, rng)
}

// affected reports whether fault injection fires on the named service.
// The decision hashes (Seed, tool name, service name) with FNV-1a so it
// is independent of execution order, worker count and attempt number.
func (t *tool) affected(service string) bool {
	if t.cfg.Rate <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	for shift := 0; shift < 64; shift += 8 {
		h ^= (t.cfg.Seed >> shift) & 0xff
		h *= prime64
	}
	mix(t.inner.Name())
	mix(service)
	return float64(h>>11)/(1<<53) < t.cfg.Rate
}

// complement inverts a report set over the case's sinks: every reported
// sink is dropped and every unreported sink is reported with high
// confidence — deterministic, structurally valid, and maximally wrong.
func complement(cs workload.Case, reports []detectors.Report) []detectors.Report {
	reported := make(map[int]bool, len(reports))
	for _, r := range reports {
		reported[r.SinkID] = true
	}
	var out []detectors.Report
	for _, tr := range cs.Truths {
		if reported[tr.SinkID] {
			continue
		}
		out = append(out, detectors.Report{
			Service:    cs.Service.Name,
			SinkID:     tr.SinkID,
			Kind:       tr.Kind,
			Confidence: 0.9,
		})
	}
	return out
}
