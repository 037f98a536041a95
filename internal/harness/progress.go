package harness

// Progress reporting is a context-carried seam, not an Options field:
// Options must stay comparable and JSON-round-trippable (the distributed
// shard protocol marshals it, and the experiments layer compares configs
// for cache identity), and a func field would break both. A callback
// installed with WithProgress rides the campaign context down through
// experiments.Runner into runCells, which invokes it once per finished
// (tool, case) cell. Reporting is observation only — it never influences
// execution, so campaigns stay byte-identical with or without a listener.

import (
	"context"
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/metrics"
)

// ProgressEvent describes one finished (tool, case) cell of a running
// campaign. Done counts finished cells across the whole run (monotone,
// each event carries a unique value); Total is the number of cells the
// run will execute, so Done == Total on the final event.
//
// One context can carry several runs (an experiment may run the shared
// campaign and then campaigns of its own), so every event names its run:
// Done and Total count within that run only.
type ProgressEvent struct {
	// Run identifies the campaign run (one RunCtx or shard execution)
	// the cell belongs to. Run IDs are unique within a process, never 0,
	// and increase in the order runs start.
	Run uint64 `json:"run"`
	// Done is the number of cells finished so far, this one included;
	// Total is the cell count of the run (tools × cases in range).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Tool and Case name the finished cell.
	Tool string `json:"tool"`
	Case int    `json:"case"`
	// Confusion is this cell's confusion-matrix delta (zero for a failed
	// cell); accumulating deltas per tool yields incremental metric
	// estimates while the campaign runs.
	Confusion metrics.Confusion `json:"confusion"`
	// Failed marks a cell that exhausted every attempt; under non-abort
	// degraded policies the campaign continues past it.
	Failed bool `json:"failed,omitempty"`
}

// ProgressFunc receives per-cell progress events. It is called from
// campaign worker goroutines — implementations must be safe for
// concurrent use and must return quickly; a slow listener stalls the
// worker that called it (buffer and shed in the listener, not here).
type ProgressFunc func(ProgressEvent)

type progressCtxKey struct{}

// runSeq allocates ProgressEvent.Run IDs.
var runSeq atomic.Uint64

// WithProgress returns a context that carries fn as the campaign
// progress listener. Any campaign executed under the returned context
// (directly via RunCtx or through the experiments layer) reports each
// finished cell to fn.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

// ProgressFromContext extracts the progress listener installed by
// WithProgress, or nil.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressCtxKey{}).(ProgressFunc)
	return fn
}

// cellConfusion pools a cell's outcome deltas for progress reporting.
func cellConfusion(outs []SinkOutcome) metrics.Confusion {
	var c metrics.Confusion
	for _, o := range outs {
		c = c.Add(o.Confusion())
	}
	return c
}
