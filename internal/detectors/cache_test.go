package detectors

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// distinctBodies counts the distinct service bodies of cases.
func distinctBodies(cases []workload.Case) int {
	seen := map[svclang.Digest]bool{}
	for _, cs := range cases {
		seen[cs.Service.Digest()] = true
	}
	return len(seen)
}

// TestCachedDataflowMatchesUncached pins the compile-cache invariant: a
// cache-bound dataflow tool produces byte-identical reports to its unbound
// original on every template case, and the original is not mutated.
func TestCachedDataflowMatchesUncached(t *testing.T) {
	cases := templateCases(t)
	bodies := distinctBodies(cases)
	if bodies == len(cases) {
		t.Fatal("no two template cases share a body; the test covers no memoised repeat")
	}
	for _, tool := range []Tool{dfPrecise(), dfStateless()} {
		cc := cfg.NewCache()
		cached := tool.(CompileCacheable).WithCompileCache(cc)
		if cached == tool {
			t.Fatalf("%s: WithCompileCache returned the receiver", tool.Name())
		}
		// Two passes: the first lowers every distinct body once; every
		// repeat, the whole second pass included, is answered by the
		// tool's report memo with identical reports and never reaches
		// the cache.
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
		if misses != uint64(bodies) || hits != 0 {
			t.Fatalf("%s: hits/misses = %d/%d, want 0/%d (one lowering per distinct body)", tool.Name(), hits, misses, bodies)
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
		// skipped) have one each. Every other lookup of a distinct body
		// is a hit; a repeated body is answered by each tool's report
		// memo and never reaches the cache.
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
		bodies := distinctBodies(cases)
		hits, misses := cc.Stats()
		if want := uint64(3 * bodies); misses != want {
			t.Fatalf("misses = %d, want 3 option sets × %d distinct bodies = %d", misses, bodies, want)
		}
		if want := uint64(2 * bodies); hits != want {
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

// bindForCampaign binds tool the way the harness binds a campaign's
// tools, reporting whether the bound copy memoises.
func bindForCampaign(tool Tool, cc *cfg.Cache, eng *compile.Engine) (Tool, bool) {
	switch bt := tool.(type) {
	case CompileCacheable:
		return bt.WithCompileCache(cc), true
	case ExecEngineBindable:
		return bt.WithExecEngine(eng), true
	}
	return tool, false
}

// TestBoundToolsMemoiseRenamedCopies: a campaign-bound pentester or
// taint analyser gives a renamed copy of a body exactly what the
// unbound tool gives it, the copy's own name included, however the
// caller treats the reports it got for the original; the body is
// compiled and lowered once.
func TestBoundToolsMemoiseRenamedCopies(t *testing.T) {
	suite, err := StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	orig := buildCase(t, "wrong-sanitizer", svclang.SinkSQL, true)
	svc := *orig.Service
	svc.Name = "renamed"
	dup := orig
	dup.Service = &svc
	cc, eng := cfg.NewCache(), compile.NewEngine()
	memoised, flagged := 0, 0
	for _, tool := range suite {
		bound, ok := bindForCampaign(tool, cc, eng)
		if !ok {
			continue
		}
		memoised++
		first := analyze(t, bound, orig)
		if want := analyze(t, tool, orig); !reflect.DeepEqual(first, want) {
			t.Fatalf("%s: bound reports %+v, unbound %+v", tool.Name(), first, want)
		}
		flagged += len(first)
		for i := range first {
			first[i] = Report{Service: "scribbled", SinkID: -1}
		}
		if got, want := analyze(t, bound, dup), analyze(t, tool, dup); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on the renamed copy: %+v, want %+v", tool.Name(), got, want)
		}
	}
	if memoised != 7 || flagged == 0 {
		t.Fatalf("%d suite tools memoise (want the 2 pentesters and the 5 taint analysers), %d reports", memoised, flagged)
	}
	if _, misses := eng.Stats(); misses != 1 {
		t.Fatalf("engine compiled %d programs for one body", misses)
	}
	if _, misses := cc.Stats(); misses != 3 {
		t.Fatalf("cfg cache lowered %d graphs for one body, want one per option set (3)", misses)
	}
}

// TestInvalidCopiesKeepTheirNames: validation errors name their
// service, so two renamed copies of an invalid body must each fail
// with their own name through a campaign-bound pentester.
func TestInvalidCopiesKeepTheirNames(t *testing.T) {
	body := []svclang.Stmt{svclang.Assign{Name: "nope", Expr: svclang.Lit{Value: "x"}}}
	bound := deepPT().(ExecEngineBindable).WithExecEngine(compile.NewEngine())
	for _, name := range []string{"BadA", "BadB"} {
		cs := workload.Case{Service: &svclang.Service{Name: name, Body: body}}
		_, err := bound.Analyze(cs, nil)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error %v does not name it", name, err)
		}
	}
}
