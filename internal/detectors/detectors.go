// Package detectors implements the vulnerability detection tools the
// benchmark evaluates. Three families are provided:
//
//   - a configurable static taint analyser (taintSAST, a CFG dataflow
//     engine) whose imprecision knobs reproduce the classic
//     false-positive/false-negative mechanisms of real static analysis
//     tools;
//   - a signature-based static tool (signatureSAST) modelling grep-like
//     scanners with flow-insensitive matching;
//   - a differential penetration tester (pentester) that attacks services
//     black-box with payload dictionaries and confirms findings by
//     structure deviation, as error-based dynamic tools do;
//   - parametric simulated tools whose per-difficulty detection
//     probabilities are set directly, used where experiments need exact
//     control of intrinsic tool quality (e.g. prevalence sweeps).
//
// All tools implement the same Tool interface: they receive a labelled
// workload case and return sink-level reports. Real tools never look at
// the labels; the parametric simulators do (that is their purpose).
package detectors

import (
	"context"
	"errors"
	"slices"

	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// Report is one tool finding: "sink SinkID of service Service is
// vulnerable".
type Report struct {
	// Service names the service the finding is in.
	Service string
	// SinkID identifies the sink within the service.
	SinkID int
	// Kind is the vulnerability class reported.
	Kind svclang.SinkKind
	// Confidence is the tool's self-assessed confidence in (0, 1].
	Confidence float64
}

// Class tags the technology family of a tool.
type Class int

// Tool classes.
const (
	ClassSAST Class = iota + 1
	ClassDAST
	ClassSimulated
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSAST:
		return "SAST"
	case ClassDAST:
		return "DAST"
	case ClassSimulated:
		return "simulated"
	default:
		return "unknown"
	}
}

// Tool is a vulnerability detection tool under benchmark.
type Tool interface {
	// Name returns the tool's display name, unique within a campaign.
	Name() string
	// Class returns the tool's technology family.
	Class() Class
	// Analyze inspects one workload case and returns its findings. The
	// RNG is used only by stochastic (simulated) tools; deterministic
	// tools ignore it. Implementations must not retain or mutate the case.
	Analyze(cs workload.Case, rng *stats.RNG) ([]Report, error)
}

// ContextAnalyzer is an optional extension of Tool for implementations
// that can observe cancellation mid-analysis. The harness's execution
// engine prefers AnalyzeContext when a tool provides it and passes the
// per-attempt context (carrying the per-tool deadline); tools that block
// on external work should select on ctx.Done() so a deadline or a
// cancelled campaign releases the worker instead of leaking a goroutine.
// Tools without this interface are invoked through Analyze on a watchdog
// goroutine that the engine abandons on timeout.
type ContextAnalyzer interface {
	Tool
	// AnalyzeContext is Analyze with cancellation. Implementations must
	// return promptly (with any error) once ctx is done.
	AnalyzeContext(ctx context.Context, cs workload.Case, rng *stats.RNG) ([]Report, error)
}

// CompileCacheable is implemented by tools that lower services through
// internal/svclang/cfg and can share one per-campaign compile cache. The
// harness rebinds such tools before a campaign so the parse/lowering work
// for a case happens once per distinct option set, not once per tool.
type CompileCacheable interface {
	// WithCompileCache returns a copy of the tool bound to cc. The
	// receiver is not mutated and the copy's reports are identical; only
	// redundant CFG construction is shared.
	WithCompileCache(cc *cfg.Cache) Tool
}

// ExecEngineBindable is implemented by tools that execute services (the
// dynamic family). The harness rebinds every such tool in a campaign to
// one shared execution engine (the bytecode VM of
// internal/svclang/compile), so compiled programs are shared across
// tools and workers exactly like the cfg compile cache.
type ExecEngineBindable interface {
	Tool
	// WithExecEngine returns a copy of the tool executing through eng.
	// The receiver is not mutated (campaign-scoped binding must not leak
	// into tools shared across campaigns).
	WithExecEngine(eng *compile.Engine) Tool
}

// reportMemo memoises a deterministic tool's reports per service body
// (the case's digest) for one campaign. Only the campaign-bound clones
// of the pentester and the taint analyser carry one: heur-ml draws from
// its RNG stream, which differs per case, and grep-sast's scan costs
// about what a lookup would.
type reportMemo struct {
	m       *memo.Cache[svclang.Digest, []Report]
	analyze func(*svclang.Service, svclang.Digest) ([]Report, error) // the tool's own analysis
}

func newReportMemo(analyze func(*svclang.Service, svclang.Digest) ([]Report, error)) *reportMemo {
	return &reportMemo{m: memo.New[svclang.Digest, []Report](0, nil), analyze: analyze}
}

// reports returns the reports of svc, whose digest is d, analysing only
// the first service of each body. Every call gets a fresh copy naming
// svc, so no caller sees another's name or can change what a later copy
// gets. A memoised error is shared by every copy, so only analyses whose
// errors do not name their service may be memoised: the pentester keys
// only services its engine has validated, and the taint analyser never
// fails on a service.
func (rm *reportMemo) reports(d svclang.Digest, svc *svclang.Service) ([]Report, error) {
	cached, _, err := rm.m.Do(d, func(d svclang.Digest) ([]Report, error) { return rm.analyze(svc, d) })
	if err != nil {
		return nil, err
	}
	out := slices.Clone(cached)
	for i := range out {
		out[i].Service = svc.Name
	}
	return out, nil
}

// retryableError marks an error as transient: the execution engine may
// re-run the attempt (with an identical RNG stream) up to its retry
// budget. The zero value of every real failure is permanent; only errors
// explicitly wrapped by MarkRetryable are retried.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// MarkRetryable wraps err so IsRetryable reports true for it. Tools wrap
// transient faults (flaky I/O, resource contention) whose repetition is
// expected to succeed; deterministic analysis failures must be returned
// unwrapped so the engine records them once and moves on. MarkRetryable
// of nil returns nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err (or any error in its chain) was marked
// retryable via MarkRetryable.
func IsRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}
