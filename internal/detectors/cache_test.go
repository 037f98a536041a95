package detectors

import (
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// TestCachedDataflowMatchesUncached pins the compile-cache invariant: a
// cache-bound dataflow tool produces byte-identical reports to its unbound
// original on every template case, and the original is not mutated.
func TestCachedDataflowMatchesUncached(t *testing.T) {
	cases := templateCases(t)
	for _, tool := range []Tool{dfPrecise(), dfStateless()} {
		cc := cfg.NewCache()
		cached := tool.(CompileCacheable).WithCompileCache(cc)
		if cached == tool {
			t.Fatalf("%s: WithCompileCache returned the receiver", tool.Name())
		}
		// Two passes: the first misses on every distinct service, the
		// second must serve each graph from memory with identical reports.
		for pass := 0; pass < 2; pass++ {
			for _, cs := range cases {
				want := analyze(t, tool, cs)
				got := analyze(t, cached, cs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s: cached reports differ", tool.Name(), cs.Service.Name)
				}
			}
		}
		hits, misses := cc.Stats()
		if misses != uint64(len(cases)) {
			t.Fatalf("%s: misses = %d, want one per case (%d)", tool.Name(), misses, len(cases))
		}
		if hits != uint64(len(cases)) {
			t.Fatalf("%s: hits = %d, want one per case (%d)", tool.Name(), hits, len(cases))
		}
	}
}

// TestCacheSharedAcrossToolsWithEqualOptions checks the cross-tool payoff:
// df-precise and df-stateless lower with the same cfg.Options, so after
// one tool has analysed a case the other's build is a hit; across the
// standard suite, lowerings are shared by every tool with equal options.
func TestCacheSharedAcrossToolsWithEqualOptions(t *testing.T) {
	cs := buildCase(t, "direct-splice", svclang.SinkSQL, true)
	cc := cfg.NewCache()
	a := dfPrecise().(CompileCacheable).WithCompileCache(cc)
	b := dfStateless().(CompileCacheable).WithCompileCache(cc)
	if _, err := a.Analyze(cs, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Analyze(cs, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	hits, misses := cc.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (both tools share one option set)", misses)
	}
	if hits == 0 {
		t.Fatal("second tool did not hit the shared cache")
	}

	t.Run("StandardSuite", func(t *testing.T) {
		// The suite's five taint-analysis tools lower with three option
		// sets: ts-precise, df-precise and df-stateless share one,
		// ts-aggressive (no pruning) and ts-lite (no pruning, loops
		// skipped) have one each. Every other lookup is a hit.
		suite, err := StandardSuite()
		if err != nil {
			t.Fatal(err)
		}
		cases := templateCases(t)
		cc := cfg.NewCache()
		bound := 0
		for _, tool := range suite {
			cct, ok := tool.(CompileCacheable)
			if !ok {
				continue
			}
			bound++
			cached := cct.WithCompileCache(cc)
			for _, cs := range cases {
				analyze(t, cached, cs)
			}
		}
		if bound != 5 {
			t.Fatalf("%d suite tools are CompileCacheable, want the 5 taint analysers", bound)
		}
		hits, misses := cc.Stats()
		if want := uint64(3 * len(cases)); misses != want {
			t.Fatalf("misses = %d, want 3 option sets × %d cases = %d", misses, len(cases), want)
		}
		if want := uint64(2 * len(cases)); hits != want {
			t.Fatalf("hits = %d, want %d", hits, want)
		}
	})
}

// TestCombinedForwardsCache checks that a combined tool rebinds its
// members: analysing through the wrapped tool must populate the cache,
// and the reports must match the unbound wrapper's.
func TestCombinedForwardsCache(t *testing.T) {
	cs := buildCase(t, "direct-splice", svclang.SinkSQL, true)
	union, err := NewCombined("df-union", Union, []Tool{dfPrecise(), dfStateless()})
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.NewCache()
	cached := union.(CompileCacheable).WithCompileCache(cc)
	if got, want := analyze(t, cached, cs), analyze(t, union, cs); !reflect.DeepEqual(got, want) {
		t.Fatal("cached reports differ")
	}
	if _, misses := cc.Stats(); misses == 0 {
		t.Fatal("combined tool did not forward the cache to its members")
	}
}

// TestCombinedForwardsExecEngine checks that a combined tool rebinds its
// executing members to the engine it is bound to. Reports do not depend
// on the engine, so only the engine's own counters show the forwarding.
func TestCombinedForwardsExecEngine(t *testing.T) {
	cs := buildCase(t, "direct-splice", svclang.SinkSQL, true)
	union, err := NewCombined("pt-union", Union, []Tool{aggressive(), deepPT()})
	if err != nil {
		t.Fatal(err)
	}
	eng := compile.NewEngine()
	bound := union.(ExecEngineBindable).WithExecEngine(eng)
	if got, want := analyze(t, bound, cs), analyze(t, union, cs); !reflect.DeepEqual(got, want) {
		t.Fatal("engine-bound reports differ")
	}
	if _, misses := eng.Stats(); misses == 0 {
		t.Fatal("combined tool did not forward the engine to its pentester member")
	}
}
