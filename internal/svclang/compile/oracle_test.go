package compile_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// The oracle-pruning acceptance matrix: the influence-guided search and
// the exhaustive reference must derive deep-equal ground truth —
// labels, witnesses and sequences — through both engines, over the
// whole template library and over generated corpora at the canonical
// determinism seeds.

// analyzeModes enumerates the four (engine, search) combinations an
// oracle derivation can run under.
func analyzeModes() []struct {
	name       string
	interpret  bool
	exhaustive bool
} {
	return []struct {
		name       string
		interpret  bool
		exhaustive bool
	}{
		{"vm/pruned", false, false},
		{"vm/exhaustive", false, true},
		{"interp/pruned", true, false},
		{"interp/exhaustive", true, true},
	}
}

// analyzeAllModes derives svc's ground truth under every mode with a
// fresh engine each and requires the results pairwise deep-equal,
// returning the common truth.
func analyzeAllModes(t *testing.T, ctx string, svc *svclang.Service) []svclang.GroundTruth {
	t.Helper()
	var ref []svclang.GroundTruth
	var refName string
	for i, m := range analyzeModes() {
		eng := compile.NewEngineMode(m.interpret, m.exhaustive)
		got, err := eng.Analyze(svc)
		if err != nil {
			t.Fatalf("%s: %s: %v", ctx, m.name, err)
		}
		if i == 0 {
			ref, refName = got, m.name
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: ground truth diverged:\n%s=%+v\n%s=%+v\nsrc:\n%s",
				ctx, refName, ref, m.name, got, svclang.Print(svc))
		}
	}
	return ref
}

// TestAnalyzePrunedExhaustiveMatrixTemplates locks the pruned search to
// the exhaustive one through both engines over every template, kind and
// vulnerability knob.
func TestAnalyzePrunedExhaustiveMatrixTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle matrix skipped in -short")
	}
	for _, tmpl := range workload.Templates() {
		for _, kind := range tmpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/vuln=%v", tmpl.Name, kind, vulnerable)
				t.Run(name, func(t *testing.T) {
					svc, _ := tmpl.Build("matrix_svc", kind, vulnerable)
					analyzeAllModes(t, name, svc)
				})
			}
		}
	}
}

// TestAnalyzePrunedExhaustiveMatrixCorpora re-derives every service of
// generated corpora at the determinism seeds through the exhaustive
// reference and requires the corpus labels (derived pruned) to match,
// witnesses included.
func TestAnalyzePrunedExhaustiveMatrixCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle corpus matrix skipped in -short")
	}
	exh := compile.NewEngineMode(false, true)
	for _, seed := range diffSeeds {
		corpus, err := workload.Generate(workload.Config{Services: 40, TargetPrevalence: 0.35, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cs := range corpus.Cases {
			want, err := exh.Analyze(cs.Service)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, cs.Service.Name, err)
			}
			if !reflect.DeepEqual(cs.Truths, want) {
				t.Fatalf("seed %d: %s: corpus truth diverged from exhaustive:\npruned=%+v\nexhaustive=%+v",
					seed, cs.Service.Name, cs.Truths, want)
			}
		}
	}
}

// mustParseOne parses a single-service source.
func mustParseOne(t *testing.T, src string) *svclang.Service {
	t.Helper()
	svc, err := svclang.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v\nsrc:\n%s", err, src)
	}
	return svc
}

// oracleCacheRuns numbers the invocations of
// TestOracleCacheContentAddressed, so each one derives a body the
// process-wide oracle cache has never seen (go test -count=N).
var oracleCacheRuns atomic.Uint64

// TestOracleCacheContentAddressed pins the cache contract: one
// derivation per distinct (body, mode), shared across engines and
// service names, with zero probes on a hit and deep-copied results.
func TestOracleCacheContentAddressed(t *testing.T) {
	body := fmt.Sprintf("  param p0\n  sink sql concat(\"SELECT oraclecache_probe_%d '\", p0, \"'\")\nend\n", oracleCacheRuns.Add(1))
	svcA := mustParseOne(t, "service cache_a\n"+body)
	svcB := mustParseOne(t, "service cache_b\n"+body)

	engA := compile.NewEngine()
	h0, m0 := compile.OracleCacheTotals()
	first, err := engA.Analyze(svcA)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := compile.OracleCacheTotals()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("cold derivation: hits %d→%d misses %d→%d, want one miss", h0, h1, m0, m1)
	}

	// A renamed service through a different engine is a hit, and a hit
	// executes no probes at all.
	probes0 := svclang.OracleTotalsSnapshot().Probes
	engB := compile.NewEngine()
	second, err := engB.Analyze(svcB)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := compile.OracleCacheTotals()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("renamed service: hits %d→%d misses %d→%d, want one hit", h1, h2, m1, m2)
	}
	if d := svclang.OracleTotalsSnapshot().Probes - probes0; d != 0 {
		t.Fatalf("cache hit executed %d probes, want 0", d)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached truth diverged:\nfirst=%+v\nsecond=%+v", first, second)
	}

	// Callers get isolated copies: corrupting a returned witness must
	// not leak into later hits.
	if len(second) == 0 || !second[0].Vulnerable || second[0].Witness == nil {
		t.Fatalf("test service should have a vulnerable witnessed sink, got %+v", second)
	}
	second[0].Witness["p0"] = "corrupted"
	second[0].Sequence[0]["p0"] = "corrupted"
	third, err := engB.Analyze(svcB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("witness mutation leaked into the cache:\nfirst=%+v\nthird=%+v", first, third)
	}

	// The mode bits partition the cache: the exhaustive search and the
	// interpreter engine derive their own entries, so a cached pruned
	// result never answers a reference request.
	for _, m := range analyzeModes()[1:] {
		eng := compile.NewEngineMode(m.interpret, m.exhaustive)
		_, mBefore := compile.OracleCacheTotals()
		got, err := eng.Analyze(svcA)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if _, mAfter := compile.OracleCacheTotals(); mAfter != mBefore+1 {
			t.Fatalf("%s: expected a distinct cache entry (misses %d→%d)", m.name, mBefore, mAfter)
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatalf("%s: truth diverged from pruned VM:\n%+v\nvs\n%+v", m.name, first, got)
		}
	}
}
