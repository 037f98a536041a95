package harness

import (
	"slices"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// bindCompileCache rebinds every cache-aware tool to one shared compile
// cache scoped to this campaign, so a case's CFG is lowered once per
// distinct option set instead of once per tool per pass. Reports are
// identical with or without the cache.
func bindCompileCache(tools []detectors.Tool) []detectors.Tool {
	var cc *cfg.Cache
	return rebind(tools, func(t detectors.CompileCacheable) detectors.Tool {
		if cc == nil {
			cc = cfg.NewCache()
		}
		return t.WithCompileCache(cc)
	})
}

// bindExecEngine rebinds every service-executing tool to eng, the one
// execution engine scoped to this campaign, so each service compiles
// once no matter how many tools and workers probe it. Results are
// engine-independent (pinned by the differential suite).
func bindExecEngine(tools []detectors.Tool, eng *compile.Engine) []detectors.Tool {
	return rebind(tools, func(t detectors.ExecEngineBindable) detectors.Tool {
		return t.WithExecEngine(eng)
	})
}

// rebind returns tools with every tool that implements B replaced by
// bind's bound copy of it. The rebinding is a copy — the caller's slice
// and tools are untouched — and tools that do not implement B pass
// through unchanged; with no such tool, tools itself is returned.
func rebind[B any](tools []detectors.Tool, bind func(B) detectors.Tool) []detectors.Tool {
	var bound []detectors.Tool
	for i, t := range tools {
		b, ok := t.(B)
		if !ok {
			continue
		}
		if bound == nil {
			bound = slices.Clone(tools)
		}
		bound[i] = bind(b)
	}
	if bound == nil {
		return tools
	}
	return bound
}

// preSplitSeeds derives the seeds of the per-(tool, case) RNG streams by
// replaying the serial harness's split sequence: an independent root
// stream per tool, split once per case in corpus order. It fills dst,
// grown to nTools*nCases, and returns it: entry t*nCases+c is the seed
// of cell (t, c)'s stream, stats.NewRNG of which is the generator Split
// gives that cell. The derived generators are independent, so handing
// them to concurrent workers cannot perturb any draw.
func preSplitSeeds(dst []uint64, nTools, nCases int, seed uint64) []uint64 {
	seeds := slices.Grow(dst[:0], nTools*nCases)[:nTools*nCases]
	for t := range nTools {
		toolRNG := stats.NewRNG(seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15)
		for c := range nCases {
			seeds[t*nCases+c] = toolRNG.SplitSeed()
		}
	}
	return seeds
}
