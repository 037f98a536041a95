package compile_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
	"github.com/dsn2015/vdbench/internal/workload"
)

// The oracle-pruning acceptance matrix: the influence-guided search and
// the exhaustive reference must derive deep-equal ground truth —
// labels, witnesses and sequences — through both engines, over the
// whole template library and over generated corpora at the canonical
// determinism seeds.

// analyzeModes enumerates the four (execution, search) pairings an
// oracle derivation can run under: the production engine, the
// reference engine, and the two cross pairings built from the probes.
var analyzeModes = []struct {
	name    string
	analyze func(*svclang.Service) ([]svclang.GroundTruth, error)
}{
	{"vm/pruned", func(svc *svclang.Service) ([]svclang.GroundTruth, error) {
		return compile.NewEngine().Analyze(svc, svc.Digest())
	}},
	{"vm/exhaustive", func(svc *svclang.Service) ([]svclang.GroundTruth, error) {
		return svclang.AnalyzeProbingExhaustive(svc, compile.VMProbe(compile.NewEngine()))
	}},
	{"interp/pruned", func(svc *svclang.Service) ([]svclang.GroundTruth, error) {
		return svclang.AnalyzeProbing(svc, reference.Probe)
	}},
	{"interp/exhaustive", func(svc *svclang.Service) ([]svclang.GroundTruth, error) {
		return reference.NewEngine().Analyze(svc, svc.Digest())
	}},
}

// analyzeAllModes derives svc's ground truth under every mode with a
// fresh engine each and requires the results pairwise deep-equal,
// returning the common truth.
func analyzeAllModes(t *testing.T, ctx string, svc *svclang.Service) []svclang.GroundTruth {
	t.Helper()
	var ref []svclang.GroundTruth
	var refName string
	for i, m := range analyzeModes {
		got, err := m.analyze(svc)
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
	vmProbe := compile.VMProbe(compile.NewEngine())
	for _, seed := range diffSeeds {
		corpus, err := workload.Generate(workload.Config{Services: 40, TargetPrevalence: 0.35, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cs := range corpus.Cases {
			want, err := svclang.AnalyzeProbingExhaustive(cs.Service, vmProbe)
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
// derivation per distinct body, shared across engines and service
// names, with zero probes on a hit and deep-copied results; the
// reference engine never touches it.
func TestOracleCacheContentAddressed(t *testing.T) {
	body := fmt.Sprintf("  param p0\n  sink sql concat(\"SELECT oraclecache_probe_%d '\", p0, \"'\")\nend\n", oracleCacheRuns.Add(1))
	svcA := mustParseOne(t, "service cache_a\n"+body)
	svcB := mustParseOne(t, "service cache_b\n"+body)

	engA := compile.NewEngine()
	h0, m0 := compile.OracleCacheTotals()
	first, err := engA.Analyze(svcA, svcA.Digest())
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
	second, err := engB.Analyze(svcB, svcB.Digest())
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
	third, err := engB.Analyze(svcB, svcB.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("witness mutation leaked into the cache:\nfirst=%+v\nthird=%+v", first, third)
	}

	// The reference engine bypasses the cache: after the cached pruned
	// derivation above it neither hits nor misses, re-derives by
	// executing probes, and must agree.
	h3, m3 := compile.OracleCacheTotals()
	probes0 = svclang.OracleTotalsSnapshot().Probes
	ref, err := reference.NewEngine().Analyze(svcA, svcA.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if h4, m4 := compile.OracleCacheTotals(); h4 != h3 || m4 != m3 {
		t.Fatalf("reference engine touched the cache: hits %d→%d misses %d→%d", h3, h4, m3, m4)
	}
	if svclang.OracleTotalsSnapshot().Probes == probes0 {
		t.Fatal("reference engine executed no probes; it must re-derive, not read a cached result")
	}
	if !reflect.DeepEqual(first, ref) {
		t.Fatalf("reference truth diverged from pruned VM:\n%+v\nvs\n%+v", first, ref)
	}
}
