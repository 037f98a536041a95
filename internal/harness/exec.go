package harness

// This file is the fault-tolerant execution engine. RunCtx is the one
// entry point every campaign goes through: it runs each (tool, case)
// attempt under panic isolation and an optional per-tool deadline,
// retries errors the tool marked retryable with deterministic backoff,
// and folds the per-case outcomes into a Campaign whose ToolResults
// carry a full execution ledger.
//
// Determinism contract: with a fault-free tool set, RunCtx produces a
// Campaign byte-identical to the pre-engine serial harness for any
// worker count. Each attempt of a case sees a value copy of that case's
// pre-split RNG stream, so a case that succeeds on attempt three draws
// exactly what it would have drawn on attempt one — results are
// invariant under the retry schedule. PerToolTimeout is the only
// wall-clock-dependent knob; everything else is a pure function of the
// inputs and the seed.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/telemetry"
	"github.com/dsn2015/vdbench/internal/workload"
	"github.com/dsn2015/vdbench/internal/workpool"
)

// DegradedPolicy decides what the scoring layer does with a degraded
// cell — a (tool, case) pair whose every attempt failed.
type DegradedPolicy int

const (
	// DegradedAbort fails the whole campaign on the first degraded cell,
	// returning the underlying error. This is the zero value and exactly
	// the historical fail-fast behaviour.
	DegradedAbort DegradedPolicy = iota
	// DegradedSkip omits the failed case from the tool's confusion
	// matrices; the ledger records which cases are missing. Metrics are
	// computed over the sinks the tool actually analysed.
	DegradedSkip
	// DegradedCountMiss scores every sink of a failed case as unflagged:
	// vulnerable sinks become false negatives, clean sinks true
	// negatives. The synthesized outcomes carry Degraded=true.
	DegradedCountMiss
)

// String implements fmt.Stringer.
func (p DegradedPolicy) String() string {
	switch p {
	case DegradedAbort:
		return "abort"
	case DegradedSkip:
		return "skip"
	case DegradedCountMiss:
		return "count-miss"
	default:
		return "unknown"
	}
}

// RetryPolicy bounds re-execution of attempts that failed with an error
// the tool marked retryable (detectors.MarkRetryable). Panics and
// deadline expiries are never retried: a panic is a tool bug and a hung
// tool would just burn another full deadline.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts after the first
	// (0 = never retry).
	MaxRetries int
	// Backoff is the wait before the first retry; retry i waits
	// Backoff << (i-1). Zero retries immediately. The wait is
	// interruptible by campaign cancellation.
	Backoff time.Duration
}

// Options configures the execution engine.
type Options struct {
	// Seed drives the simulated tools; real tools are deterministic.
	Seed uint64
	// Workers sizes the campaign's workpool budget; <= 0 selects
	// runtime.GOMAXPROCS(0) and 1 runs inline without goroutines.
	// Results are identical for every worker count.
	Workers int
	// PerToolTimeout bounds each attempt of each (tool, case) pair;
	// 0 means no deadline. Context-aware tools (detectors.ContextAnalyzer)
	// are expected to return promptly once the deadline fires; plain
	// tools run on a watchdog goroutine that is abandoned on expiry.
	PerToolTimeout time.Duration
	// Retry bounds re-execution of retryable failures.
	Retry RetryPolicy
	// Degraded is the scoring policy for cells whose attempts all
	// failed. The zero value aborts, matching the historical behaviour.
	Degraded DegradedPolicy
}

// Validate rejects unusable option combinations.
func (o Options) Validate() error {
	if o.PerToolTimeout < 0 {
		return fmt.Errorf("harness: negative PerToolTimeout %v", o.PerToolTimeout)
	}
	if o.Retry.MaxRetries < 0 {
		return fmt.Errorf("harness: negative MaxRetries %d", o.Retry.MaxRetries)
	}
	if o.Retry.Backoff < 0 {
		return fmt.Errorf("harness: negative retry backoff %v", o.Retry.Backoff)
	}
	switch o.Degraded {
	case DegradedAbort, DegradedSkip, DegradedCountMiss:
	default:
		return fmt.Errorf("harness: unknown degraded policy %d", int(o.Degraded))
	}
	return nil
}

// FailureKind classifies how a (tool, case) cell finally failed.
type FailureKind int

const (
	// FailPanic is a panic recovered from the tool.
	FailPanic FailureKind = iota + 1
	// FailTimeout is an attempt that outlived PerToolTimeout.
	FailTimeout
	// FailError is an ordinary analysis error (after exhausting any
	// retry budget, if the error was retryable).
	FailError
)

// String implements fmt.Stringer.
func (k FailureKind) String() string {
	switch k {
	case FailPanic:
		return "panic"
	case FailTimeout:
		return "timeout"
	case FailError:
		return "error"
	default:
		return "unknown"
	}
}

// ExecError records the final failure of one (tool, case) cell. The
// exported fields are the complete wire representation: a record decoded
// from JSON (the distributed shard protocol, internal/dist) reproduces
// the same Error() text and the same merged ledger as the original.
type ExecError struct {
	// Tool and Service name the cell; Case is the corpus index.
	Tool    string `json:"tool"`
	Service string `json:"service"`
	Case    int    `json:"case"`
	// Attempt is the 1-based attempt the cell finally failed on.
	Attempt int `json:"attempt"`
	// Kind classifies the failure; Msg is the underlying error text.
	Kind FailureKind `json:"kind"`
	Msg  string      `json:"msg"`

	// err keeps the original error for the abort policy and errors.Is.
	// It does not cross the wire; Underlying reconstructs an equivalent.
	err error
}

// Error implements the error interface.
func (e *ExecError) Error() string {
	return fmt.Sprintf("%s on %s (case %d, attempt %d): %s: %s",
		e.Tool, e.Service, e.Case, e.Attempt, e.Kind, e.Msg)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ExecError) Unwrap() error { return e.err }

// Underlying returns the original error the cell failed with. For a
// record decoded from the wire (where the original error value is gone)
// it returns an error with the recorded message, so the abort policy
// reports identical text whether the cell failed locally or on a remote
// worker.
func (e *ExecError) Underlying() error {
	if e.err != nil {
		return e.err
	}
	return errors.New(e.Msg)
}

// ExecLedger is the per-tool execution accounting attached to every
// ToolResult. Invariants (checked by Reconcile and the property tests):
//
//	Cases     == Succeeded + Failed
//	Attempts  == Succeeded + Failed + Retries
//	Failed    == RecoveredPanics + Timeouts + Errors
//	Failed    == len(FailedCases) == len(Faults)
type ExecLedger struct {
	// Cases is the number of corpus cases the tool was scheduled on;
	// Succeeded of them produced outcomes, Failed exhausted every
	// attempt.
	Cases     int
	Succeeded int
	Failed    int
	// Attempts counts every tool invocation including retries; Retries
	// counts re-invocations after a retryable error.
	Attempts int
	Retries  int
	// RecoveredPanics, Timeouts and Errors split Failed by FailureKind.
	RecoveredPanics int
	Timeouts        int
	Errors          int
	// FailedCases lists the corpus indices of failed cases in ascending
	// order; Faults carries the matching failure records.
	FailedCases []int
	Faults      []ExecError
}

// Reconcile checks the ledger's internal invariants, returning a
// description of the first violation or nil.
func (l ExecLedger) Reconcile() error {
	if l.Cases != l.Succeeded+l.Failed {
		return fmt.Errorf("harness: ledger cases %d != succeeded %d + failed %d", l.Cases, l.Succeeded, l.Failed)
	}
	if l.Attempts != l.Succeeded+l.Failed+l.Retries {
		return fmt.Errorf("harness: ledger attempts %d != succeeded %d + failed %d + retries %d",
			l.Attempts, l.Succeeded, l.Failed, l.Retries)
	}
	if l.Failed != l.RecoveredPanics+l.Timeouts+l.Errors {
		return fmt.Errorf("harness: ledger failed %d != panics %d + timeouts %d + errors %d",
			l.Failed, l.RecoveredPanics, l.Timeouts, l.Errors)
	}
	if l.Failed != len(l.FailedCases) || l.Failed != len(l.Faults) {
		return fmt.Errorf("harness: ledger failed %d != %d failed cases / %d faults",
			l.Failed, len(l.FailedCases), len(l.Faults))
	}
	for i := 1; i < len(l.FailedCases); i++ {
		if l.FailedCases[i-1] >= l.FailedCases[i] {
			return fmt.Errorf("harness: ledger failed cases not ascending at %d", i)
		}
	}
	return nil
}

// ExecTotals is a process-wide snapshot of engine fault counters, the
// source for the serving layer's /metrics export.
type ExecTotals struct {
	RecoveredPanics uint64
	Timeouts        uint64
	Errors          uint64
	Retries         uint64
}

var (
	execPanics   atomic.Uint64
	execTimeouts atomic.Uint64
	execErrors   atomic.Uint64
	execRetries  atomic.Uint64
)

// ExecTotalsSnapshot returns the cumulative fault counters across every
// campaign this process has run. Totals are monotone; daemons export
// them through RegisterProcessCounters.
func ExecTotalsSnapshot() ExecTotals {
	return ExecTotals{
		RecoveredPanics: execPanics.Load(),
		Timeouts:        execTimeouts.Load(),
		Errors:          execErrors.Load(),
		Retries:         execRetries.Load(),
	}
}

// RegisterProcessCounters registers the process-wide engine counters on
// reg — compile cache, execution faults, ground-truth oracle search and
// oracle cache — as scrape-time counters (telemetry.Registry.CounterFunc).
// Each reports the process growth since its registration, so a daemon
// that registers at construction sees only the work done while it runs.
// It is the one reader of the process-global totals: every daemon role
// calls it on its registry instead of folding snapshots itself.
func RegisterProcessCounters(reg *telemetry.Registry) {
	reg.CounterFunc("vd_compile_cache_hits_total", "campaign CFG builds served from the shared compile cache",
		func() uint64 { h, _ := cfg.CacheTotals(); return h })
	reg.CounterFunc("vd_compile_cache_misses_total", "campaign CFG builds that lowered a graph",
		func() uint64 { _, m := cfg.CacheTotals(); return m })

	reg.CounterFunc("vd_exec_recovered_panics_total", "tool panics recovered by the execution engine", execPanics.Load)
	reg.CounterFunc("vd_exec_timeouts_total", "tool invocations abandoned at the per-tool deadline", execTimeouts.Load)
	reg.CounterFunc("vd_exec_errors_total", "tool invocations that returned a non-retryable error", execErrors.Load)
	reg.CounterFunc("vd_exec_retries_total", "tool invocations retried after a retryable failure", execRetries.Load)

	reg.CounterFunc("vd_oracle_probes_total", "ground-truth oracle probes executed",
		func() uint64 { return svclang.OracleTotalsSnapshot().Probes })
	reg.CounterFunc("vd_oracle_pruned_total", "ground-truth oracle probes pruned by the influence analysis",
		func() uint64 { return svclang.OracleTotalsSnapshot().Pruned })
	reg.CounterFunc("vd_oracle_early_exits_total", "oracle sweeps stopped early with every sink proven vulnerable",
		func() uint64 { return svclang.OracleTotalsSnapshot().EarlyExits })
	reg.CounterFunc("vd_oracle_cache_hits_total", "ground-truth derivations served from the content-addressed oracle cache",
		func() uint64 { h, _ := compile.OracleCacheTotals(); return h })
	reg.CounterFunc("vd_oracle_cache_misses_total", "ground-truth derivations the oracle cache had to compute",
		func() uint64 { _, m := compile.OracleCacheTotals(); return m })
}

// CellResult is the execution engine's record of one (tool, case) cell:
// the outcomes of a successful cell or the fault of a failed one, plus
// the attempt accounting the ledger is built from. It is the unit the
// distributed shard protocol ships between workers and the coordinator
// (internal/dist); the JSON encoding carries every field the merge
// reads, so a campaign merged from decoded records is byte-identical to
// one merged from local records.
type CellResult struct {
	// Outcomes holds the scored per-sink outcomes of a successful cell,
	// in truth order; nil when the cell failed.
	Outcomes []SinkOutcome `json:"outcomes,omitempty"`
	// Fault records the final failure of a failed cell; nil on success.
	Fault *ExecError `json:"fault,omitempty"`
	// Attempts counts every invocation of the cell including retries;
	// Retries counts re-invocations after a retryable error.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
}

// engine carries the campaign state shared by every lane: the
// immutable inputs, and one outcome arena per tool that lanes score
// into.
type engine struct {
	opts   Options
	corpus *workload.Corpus
	tools  []detectors.Tool
	// seeds[t*len(corpus.Cases)+c] seeds cell (t, c)'s RNG stream.
	seeds []uint64
	// lo and hi bound the cases this engine executes. offs holds the
	// prefix sums of len(Truths) over [lo, hi): case c's slot in tool t's
	// arena is arenas[t][offs[c-lo]:offs[c-lo+1]].
	lo, hi int
	offs   []int
	arenas [][]SinkOutcome
}

// RunCtx executes the campaign under ctx with fault-tolerant semantics.
// Every tool invocation runs under panic isolation and, when
// opts.PerToolTimeout is set, a per-attempt deadline; errors the tool
// marked retryable are retried up to opts.Retry.MaxRetries times with
// deterministic backoff. What happens to cells that still fail is
// decided by opts.Degraded: abort the campaign (zero value, historical
// behaviour), skip them, or count them as misses. Under the skip and
// count-miss policies the campaign always completes with partial
// results and a populated ExecLedger per tool.
//
// Cancelling ctx aborts the campaign at the next case boundary; the
// returned error wraps ctx.Err().
//
// The Campaign is identical, field for field, for every worker count.
// Determinism rests on two invariants:
//
//  1. RNG pre-split: the per-(tool, case) RNG streams are derived up front
//     by walking toolRNG.Split() in exactly the order a serial loop
//     would, so every task sees the same generator state it would have
//     seen serially, no matter which lane runs it or when. Each
//     (tool, case) pair gets an independent stream, so adding or
//     removing tools does not perturb the others' draws.
//  2. Arena slots, ordered merge: each tool owns one outcome arena sized
//     to the corpus's sinks, and a successful (tool, case) task scores
//     straight into that case's fixed slot of it — on the lane, also
//     when a watchdog goroutine made the tool call. The final
//     aggregation folds the slots in corpus order, the same
//     accumulation sequence as a serial loop, compacting the arena in
//     place into the tool's Outcomes.
//
// The cells run on one workpool.ForEach over the (tool, case) grid:
// opts.Workers <= 0 selects runtime.GOMAXPROCS(0); 1 runs inline without
// spawning goroutines. Tool implementations must be safe for concurrent
// Analyze calls on distinct cases (the standard suite is: all
// per-request state lives in the call frame). Under DegradedAbort the
// returned error is exactly the first one serial execution hits, for
// every worker count, whenever the tools' faults are deterministic:
// ForEach returns the error of the lowest failed grid index.
func RunCtx(ctx context.Context, corpus *workload.Corpus, tools []detectors.Tool, opts Options) (*Campaign, error) {
	return runCtx(ctx, corpus, tools, opts, compile.NewEngine())
}

// scratch is the memory of one run that is dead once the run returns:
// the flat [tool][case] cell grid, the fault records its failed cells
// point to, and the pre-split seed table. A run takes one from
// scratchPool and releases it on return, so back-to-back campaigns
// (E18's replays) reuse one grid, one fault slab and one seed table.
// Nothing a run returns points into it: a Campaign's Outcomes are the
// engine's arenas and its Faults are copies, and the grid RunShardCtx
// returns, with its faults, comes from a scratch of its own.
type scratch struct {
	cells  []CellResult
	faults faultSlab
	seeds  []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grid returns s's cells as nTools rows of nCases cells over one flat
// slice. A pooled scratch's cells are all zero.
func (s *scratch) grid(nTools, nCases int) [][]CellResult {
	n := nTools * nCases
	s.cells = slices.Grow(s.cells[:0], n)[:n]
	rows := make([][]CellResult, nTools)
	for t := range rows {
		rows[t] = s.cells[t*nCases : (t+1)*nCases : (t+1)*nCases]
	}
	return rows
}

// release clears the grid and the fault slab, so the pool keeps no
// finished campaign's arenas or faults alive and the next run starts
// from zero cells, and returns s to the pool. Every lane has returned by
// then: ForEach waits for its helpers, and a watchdog goroutine gets its
// case and seed by value.
func (s *scratch) release() {
	clear(s.cells)
	s.cells = s.cells[:0]
	s.faults.reset()
	scratchPool.Put(s)
}

// faultChunk is the number of fault records in one chunk of a faultSlab.
const faultChunk = 128

// faultSlab hands out the fault records of a run's failed cells from
// fixed chunks, which never move, so a record's address stays valid as
// the slab grows. Lanes take records concurrently.
type faultSlab struct {
	mu     sync.Mutex
	chunks []*[faultChunk]ExecError
	n      int // records handed out since the last reset
}

// take returns a zeroed record.
func (s *faultSlab) take() *ExecError {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, i := s.n/faultChunk, s.n%faultChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([faultChunk]ExecError))
	}
	s.n++
	return &s.chunks[c][i]
}

// reset zeroes every record handed out and keeps the chunks.
func (s *faultSlab) reset() {
	for c := 0; c*faultChunk < s.n; c++ {
		clear(s.chunks[c][:min(s.n-c*faultChunk, faultChunk)])
	}
	s.n = 0
}

// runCtx is RunCtx on a caller-supplied execution engine: the seam
// through which tests run a campaign on the test-only reference.NewEngine
// and require it deep-equal to the production one.
func runCtx(ctx context.Context, corpus *workload.Corpus, tools []detectors.Tool, opts Options, xeng *compile.Engine) (*Campaign, error) {
	if err := validate(corpus, tools); err != nil {
		return nil, err
	}
	scr := scratchPool.Get().(*scratch)
	defer scr.release()
	eng, err := newEngine(corpus, tools, opts, xeng, 0, len(corpus.Cases), scr)
	if err != nil {
		return nil, err
	}
	cells, err := eng.runCells(ctx, opts.Degraded == DegradedAbort, scr)
	if err != nil {
		return nil, err
	}
	return mergeCampaign(corpus, eng.tools, cells, eng.arenas, opts.Degraded), nil
}

// newEngine checks opts and the case range [lo, hi) of a validated
// corpus, then assembles the campaign state for those cases: the
// campaign-scoped compile cache and execution engine xeng, the
// pre-split per-(tool, case) RNG streams in scr's seed table, and each
// tool's outcome arena with the per-case slot offsets. The RNG streams
// always cover the FULL corpus, so a shard execution (a sub-range) sees
// exactly the generator state a local full run would.
func newEngine(corpus *workload.Corpus, tools []detectors.Tool, opts Options, xeng *compile.Engine, lo, hi int, scr *scratch) (*engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(corpus.Cases) || lo >= hi {
		return nil, fmt.Errorf("harness: shard range [%d,%d) outside corpus of %d cases", lo, hi, len(corpus.Cases))
	}
	tools = bindCompileCache(tools)
	tools = bindExecEngine(tools, xeng)
	offs := make([]int, hi-lo+1)
	for c := lo; c < hi; c++ {
		offs[c-lo+1] = offs[c-lo] + len(corpus.Cases[c].Truths)
	}
	arenas := make([][]SinkOutcome, len(tools))
	for t := range arenas {
		arenas[t] = make([]SinkOutcome, offs[hi-lo])
	}
	scr.seeds = preSplitSeeds(scr.seeds, len(tools), len(corpus.Cases), opts.Seed)
	return &engine{
		opts:   opts,
		corpus: corpus,
		tools:  tools,
		seeds:  scr.seeds,
		lo:     lo,
		hi:     hi,
		offs:   offs,
		arenas: arenas,
	}, nil
}

// slot is the (tool t, case c) slot of t's arena, capped so that no
// append through it can reach the next case's slot.
func (e *engine) slot(t, c int) []SinkOutcome {
	from, to := e.offs[c-e.lo], e.offs[c-e.lo+1]
	return e.arenas[t][from:to:to]
}

// seed is the seed of cell (t, c)'s RNG stream.
func (e *engine) seed(t, c int) uint64 {
	return e.seeds[t*len(e.corpus.Cases)+c]
}

// runCells executes every (tool, case) cell whose case index lies in
// [e.lo, e.hi), records them in out's grid, indexed [tool][case-lo],
// and returns it; the Outcomes of a successful record are its arena
// slot, and the Fault of a failed one is a record of out's fault slab.
// The cells run on one workpool.ForEach over the grid in (tool, case)
// order, with one RNG scratch per lane.
// Cancellation, and any cell fault when abortOnFault is set
// (DegradedAbort), is that cell's error, so the campaign fails with the
// error ForEach returns: the one serial execution hits first.
func (e *engine) runCells(ctx context.Context, abortOnFault bool, out *scratch) ([][]CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lo, nTools, nCases := e.lo, len(e.tools), e.hi-e.lo
	cells := out.grid(nTools, nCases)

	// Progress reporting is pure observation on the side of execution:
	// events never alter scheduling or results, so a campaign with a
	// listener is byte-identical to one without.
	var done atomic.Int64
	var run uint64
	listener := ProgressFromContext(ctx)
	if listener != nil {
		run = runSeq.Add(1)
	}

	pool := workpool.New(e.opts.Workers)
	rngs := make([]stats.RNG, pool.Workers())
	err := pool.ForEach(nTools*nCases, func(lane, i int) error {
		t, c := i/nCases, lo+i%nCases
		if err := ctx.Err(); err != nil {
			return abortErr(err)
		}
		ce, err := e.executeCase(ctx, t, c, &rngs[lane], &out.faults)
		if err != nil {
			return err
		}
		if ce.Fault != nil && abortOnFault {
			return ce.Fault.err
		}
		cells[t][c-lo] = ce
		if listener != nil {
			listener(ProgressEvent{
				Run:       run,
				Done:      int(done.Add(1)),
				Total:     nTools * nCases,
				Tool:      e.tools[t].Name(),
				Case:      c,
				Confusion: cellConfusion(ce.Outcomes),
				Failed:    ce.Fault != nil,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// executeCase runs the attempt loop for one (tool, case) cell, scoring a
// successful attempt into the cell's arena slot. rng is the lane's
// scratch generator, and a failed cell's fault record comes from
// faults. The returned error is campaign-fatal (cancellation); per-cell
// failures are reported through CellResult.Fault so the policy layer
// can decide.
func (e *engine) executeCase(ctx context.Context, t, c int, rng *stats.RNG, faults *faultSlab) (CellResult, error) {
	var ce CellResult
	maxAttempts := 1 + e.opts.Retry.MaxRetries
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ce, abortErr(err)
		}
		ce.Attempts++
		kind, err := e.runAttempt(ctx, t, c, rng)
		if err == nil {
			ce.Outcomes = e.slot(t, c)
			return ce, nil
		}
		if ctx.Err() != nil {
			// The attempt died because the campaign did.
			return ce, abortErr(ctx.Err())
		}
		if kind == FailError && detectors.IsRetryable(err) && attempt < maxAttempts {
			ce.Retries++
			execRetries.Add(1)
			if e.opts.Retry.Backoff > 0 {
				if serr := sleepCtx(ctx, backoffFor(e.opts.Retry.Backoff, attempt)); serr != nil {
					return ce, abortErr(serr)
				}
			}
			continue
		}
		ce.Fault = faults.take()
		*ce.Fault = ExecError{
			Tool:    e.tools[t].Name(),
			Service: e.corpus.Cases[c].Service.Name,
			Case:    c,
			Attempt: attempt,
			Kind:    kind,
			Msg:     err.Error(),
			err:     err,
		}
		switch kind {
		case FailPanic:
			execPanics.Add(1)
		case FailTimeout:
			execTimeouts.Add(1)
		default:
			execErrors.Add(1)
		}
		return ce, nil
	}
}

// runAttempt performs one isolated, deadline-bounded tool invocation and
// scores its reports into the cell's arena slot. kind is zero on
// success and classifies the failure otherwise. Each attempt draws from
// a generator freshly seeded with the cell's pre-split seed, so every
// attempt of a cell replays identical draws: inline, the lane's scratch
// rng is reseeded.
func (e *engine) runAttempt(ctx context.Context, t, c int, rng *stats.RNG) (kind FailureKind, err error) {
	tool, cs := e.tools[t], e.corpus.Cases[c]
	timeout := e.opts.PerToolTimeout

	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var r toolCall
	if _, ok := tool.(detectors.ContextAnalyzer); ok || timeout == 0 {
		// Context-aware tools observe the deadline themselves; tools
		// without a deadline cannot outlive one. Either way the call
		// runs inline on this lane.
		*rng = *stats.NewRNG(e.seed(t, c))
		r = callTool(actx, tool, cs, rng)
	} else {
		// Plain tool under a deadline: call it on a watchdog goroutine
		// we can abandon. The buffered channel lets a late-finishing
		// tool complete and be collected by the GC; a tool that never
		// returns leaks its goroutine — that is the price of deadlines
		// without tool cooperation, and why detectors.ContextAnalyzer
		// exists. The goroutine only calls the tool: scoring happens
		// here, so an abandoned call never writes into the arena.
		ch := make(chan toolCall, 1)
		go watchTool(actx, ch, tool, cs, e.seed(t, c))
		select {
		case r = <-ch:
		case <-actx.Done():
			if ctx.Err() != nil {
				return FailTimeout, abortErr(ctx.Err())
			}
			return FailTimeout, timeoutError(tool, cs, timeout)
		}
	}
	if r.kind != 0 {
		return r.kind, r.err
	}
	err = r.err
	if err == nil {
		err = scoreCase(e.slot(t, c), tool, cs, r.reports)
	}
	if err == nil {
		return 0, nil
	}
	// Deadline expiry becomes a deterministic timeout record.
	if timeout > 0 && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		return FailTimeout, timeoutError(tool, cs, timeout)
	}
	return FailError, err
}

// toolCall is the result of one isolated tool invocation: the reports,
// or the error with kind FailPanic for a recovered panic and zero
// otherwise.
type toolCall struct {
	reports []detectors.Report
	kind    FailureKind
	err     error
}

// callTool invokes tool on cs under panic isolation. Tools implementing
// detectors.ContextAnalyzer receive ctx, the per-attempt deadline
// context; plain tools are invoked without it.
func callTool(ctx context.Context, tool detectors.Tool, cs workload.Case, rng *stats.RNG) (r toolCall) {
	defer func() {
		if v := recover(); v != nil {
			r = toolCall{kind: FailPanic, err: fmt.Errorf("harness: %s on %s: recovered panic: %v", tool.Name(), cs.Service.Name, v)}
		}
	}()
	if ca, ok := tool.(detectors.ContextAnalyzer); ok {
		r.reports, r.err = ca.AnalyzeContext(ctx, cs, rng)
	} else {
		r.reports, r.err = tool.Analyze(cs, rng)
	}
	if r.err != nil {
		r = toolCall{err: fmt.Errorf("harness: %s on %s: %w", tool.Name(), cs.Service.Name, r.err)}
	}
	return r
}

// watchTool is the watchdog goroutine's body: one callTool on its own
// copy of the cell's RNG stream, seeded from seed, which an abandoned
// call may keep drawing from after the lane has moved on.
func watchTool(ctx context.Context, ch chan<- toolCall, tool detectors.Tool, cs workload.Case, seed uint64) {
	ch <- callTool(ctx, tool, cs, stats.NewRNG(seed))
}

// timeoutError is the canonical deadline-expiry record: its text depends
// only on configuration, never on how far the tool got.
func timeoutError(tool detectors.Tool, cs workload.Case, timeout time.Duration) error {
	return fmt.Errorf("harness: %s on %s: tool deadline %v exceeded", tool.Name(), cs.Service.Name, timeout)
}

// abortErr wraps a context error as the campaign-level abort error.
func abortErr(err error) error {
	return fmt.Errorf("harness: campaign aborted: %w", err)
}

// backoffFor returns the wait before retry number `attempt` (1-based
// failing attempt): base << (attempt-1), i.e. base, 2*base, 4*base, ...
func backoffFor(base time.Duration, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	return base << shift
}

// sleepCtx blocks for d or until ctx is done. The deadline timer lives
// inside a derived context — the only timing primitive the
// deterministic-package lint permits here. Backoff sleeping exists only
// on the retry path, which fault-free campaigns never take, so campaign
// results stay a pure function of seed and inputs.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	sctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	<-sctx.Done()
	return ctx.Err()
}
