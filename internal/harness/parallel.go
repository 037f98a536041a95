package harness

import (
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// bindCompileCache rebinds every cache-aware tool to one shared compile
// cache scoped to this campaign, so a case's CFG is lowered once per
// distinct option set instead of once per tool per pass. The rebinding is
// a copy (callers' tools are untouched) and reports are identical with or
// without the cache. Tools that do not implement detectors.CompileCacheable
// pass through unchanged.
func bindCompileCache(tools []detectors.Tool) []detectors.Tool {
	anyCacheable := false
	for _, t := range tools {
		if _, ok := t.(detectors.CompileCacheable); ok {
			anyCacheable = true
			break
		}
	}
	if !anyCacheable {
		return tools
	}
	cc := cfg.NewCache()
	bound := make([]detectors.Tool, len(tools))
	for i, t := range tools {
		if cct, ok := t.(detectors.CompileCacheable); ok {
			bound[i] = cct.WithCompileCache(cc)
		} else {
			bound[i] = t
		}
	}
	return bound
}

// bindExecEngine rebinds every service-executing tool to eng, the one
// execution engine scoped to this campaign, so each service compiles
// once no matter how many tools and workers probe it. Mirrors
// bindCompileCache: rebinding is a copy, results are engine-independent
// (pinned by the differential suite), and tools that do not implement
// detectors.ExecEngineBindable pass through unchanged.
func bindExecEngine(tools []detectors.Tool, eng *compile.Engine) []detectors.Tool {
	anyExec := false
	for _, t := range tools {
		if _, ok := t.(detectors.ExecEngineBindable); ok {
			anyExec = true
			break
		}
	}
	if !anyExec {
		return tools
	}
	bound := make([]detectors.Tool, len(tools))
	for i, t := range tools {
		if et, ok := t.(detectors.ExecEngineBindable); ok {
			bound[i] = et.WithExecEngine(eng)
		} else {
			bound[i] = t
		}
	}
	return bound
}

// preSplitRNGs derives the per-(tool, case) RNG streams by replaying the
// serial harness's split sequence: an independent root stream per tool,
// split once per case in corpus order. The derived generators are
// independent, so handing them to concurrent workers cannot perturb any
// draw.
func preSplitRNGs(nTools, nCases int, seed uint64) [][]*stats.RNG {
	rngs := make([][]*stats.RNG, nTools)
	for t := range rngs {
		toolRNG := stats.NewRNG(seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15)
		rngs[t] = make([]*stats.RNG, nCases)
		for c := range rngs[t] {
			rngs[t][c] = toolRNG.Split()
		}
	}
	return rngs
}
