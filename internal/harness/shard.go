package harness

// This file is the distributed-execution seam of the harness: a campaign
// can be split by case range into shards, each shard executed by a
// different process (internal/dist workers), and the per-cell records
// merged back into a Campaign byte-identical to a local run.
//
// The split is sound because of the same two invariants RunCtx rests
// on (see its doc in exec.go): RNG streams are pre-split over the
// FULL corpus in serial order — a shard execution derives exactly the
// generator states a local run would hand those cases — and the merge
// folds cells in (tool, case) order, the same accumulation sequence as
// the serial loop. Which process executed a cell is therefore invisible
// in the output.

import (
	"context"
	"fmt"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// RunShardCtx executes the cells of every tool over the corpus cases in
// [lo, hi) and returns the records indexed [tool][case-lo]. The corpus
// must be the FULL campaign corpus — the per-(tool, case) RNG streams
// are derived over all of it, so the shard's cells draw exactly what
// they would draw in a local full-corpus run.
//
// Unlike RunCtx, a cell fault is never fatal here: the worker always
// records it and ships it home, and the degraded policy (including
// abort) is applied over the assembled full grid by MergeShards and
// AbortError — that is what keeps the abort error deterministic no
// matter how cases were sharded. opts.Degraded is therefore ignored.
// Cancelling ctx aborts the shard at the next cell boundary.
func RunShardCtx(ctx context.Context, corpus *workload.Corpus, tools []detectors.Tool, opts Options, lo, hi int) ([][]CellResult, error) {
	if err := validate(corpus, tools); err != nil {
		return nil, err
	}
	scr := scratchPool.Get().(*scratch)
	defer scr.release()
	eng, err := newEngine(corpus, tools, opts, compile.NewEngine(), lo, hi, scr)
	if err != nil {
		return nil, err
	}
	// The grid is the caller's to keep, so it comes from a scratch of its
	// own that never enters the pool; only the seed table is pooled.
	return eng.runCells(ctx, false, new(scratch).grid(len(eng.tools), hi-lo))
}

// MergeShards assembles the full per-(tool, case) cell grid — produced
// by any number of RunShardCtx calls in any number of processes — into
// a Campaign under the degraded policy. cells is indexed [tool][case]
// over the whole corpus. The result is byte-identical to RunCtx over
// the same corpus, tools and seed: the merge is the same fold, in the
// same order, over the same records.
//
// Under DegradedAbort the merge fails with AbortError, reconstructing
// the underlying error text when the record crossed a process boundary.
func MergeShards(corpus *workload.Corpus, tools []detectors.Tool, cells [][]CellResult, policy DegradedPolicy) (*Campaign, error) {
	if err := validate(corpus, tools); err != nil {
		return nil, err
	}
	switch policy {
	case DegradedAbort, DegradedSkip, DegradedCountMiss:
	default:
		return nil, fmt.Errorf("harness: unknown degraded policy %d", int(policy))
	}
	if len(cells) != len(tools) {
		return nil, fmt.Errorf("harness: merge got cells for %d tools, want %d", len(cells), len(tools))
	}
	for t := range cells {
		if len(cells[t]) != len(corpus.Cases) {
			return nil, fmt.Errorf("harness: merge got %d cells for tool %s, want %d", len(cells[t]), tools[t].Name(), len(corpus.Cases))
		}
		for c := range cells[t] {
			ce := &cells[t][c]
			if ce.Retries < 0 || ce.Attempts != ce.Retries+1 {
				return nil, fmt.Errorf("harness: merge cell (%s, case %d) has %d attempts after %d retries, want retries + 1",
					tools[t].Name(), c, ce.Attempts, ce.Retries)
			}
			if ce.Fault == nil && len(ce.Outcomes) != len(corpus.Cases[c].Truths) {
				return nil, fmt.Errorf("harness: merge cell (%s, case %d) has %d outcomes, want %d",
					tools[t].Name(), c, len(ce.Outcomes), len(corpus.Cases[c].Truths))
			}
		}
	}
	if err := AbortError(cells, policy); err != nil {
		return nil, err
	}
	return mergeCampaign(corpus, tools, cells, nil, policy), nil
}

// AbortError is the error the degraded policy fails a campaign over the
// full [tool][case] grid with: under DegradedAbort the fault of the
// earliest failed cell in (tool, case) order — the fault serial
// execution would have aborted on — and nil under every other policy or
// when no cell failed.
func AbortError(cells [][]CellResult, policy DegradedPolicy) error {
	if policy != DegradedAbort {
		return nil
	}
	for t := range cells {
		for c := range cells[t] {
			if f := cells[t][c].Fault; f != nil {
				return f.Underlying()
			}
		}
	}
	return nil
}
