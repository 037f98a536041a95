package vdbench

// One benchmark per reproduced table/figure (E1-E10), plus
// micro-benchmarks for the load-bearing substrates. The experiment
// benchmarks use the quick configuration so `go test -bench=.` terminates
// in minutes; the numbers in EXPERIMENTS.md come from the default
// configuration via cmd/vdbench.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/experiments"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
	"github.com/dsn2015/vdbench/internal/workload"
)

// benchExperiment regenerates one experiment artefact per iteration,
// end to end (corpus, campaign, profiles included where the experiment
// needs them).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.QuickConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner, err := experiments.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := runner.RunCtx(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables)+len(res.Figures) == 0 {
			b.Fatalf("%s produced no artefacts", id)
		}
	}
}

func BenchmarkE1MetricCatalog(b *testing.B)     { benchExperiment(b, "e1") }
func BenchmarkE2MetricProperties(b *testing.B)  { benchExperiment(b, "e2") }
func BenchmarkE3Campaign(b *testing.B)          { benchExperiment(b, "e3") }
func BenchmarkE4MetricValues(b *testing.B)      { benchExperiment(b, "e4") }
func BenchmarkE5Rankings(b *testing.B)          { benchExperiment(b, "e5") }
func BenchmarkE6Prevalence(b *testing.B)        { benchExperiment(b, "e6") }
func BenchmarkE7Discrimination(b *testing.B)    { benchExperiment(b, "e7") }
func BenchmarkE8ScenarioSelection(b *testing.B) { benchExperiment(b, "e8") }
func BenchmarkE9AHP(b *testing.B)               { benchExperiment(b, "e9") }
func BenchmarkE10Sensitivity(b *testing.B)      { benchExperiment(b, "e10") }
func BenchmarkE11MethodAgreement(b *testing.B)  { benchExperiment(b, "e11") }
func BenchmarkE12ThresholdFree(b *testing.B)    { benchExperiment(b, "e12") }
func BenchmarkE13MicroMacro(b *testing.B)       { benchExperiment(b, "e13") }

// --- substrate micro-benchmarks ---

var benchMatrix = metrics.Confusion{TP: 40, FP: 10, FN: 20, TN: 130}

func BenchmarkMetricMCC(b *testing.B) {
	m := metrics.MustByID(metrics.IDMCC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Value(benchMatrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricCatalogAllValues(b *testing.B) {
	cat := metrics.Catalog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range cat {
			v, err := m.Value(benchMatrix)
			if err != nil {
				b.Fatal(err)
			}
			_ = v
		}
	}
}

var benchServiceSrc = `
service Bench
  param id
  param mode
  var q
  if not matches(id, alnum)
    reject
  end
  if eq(mode, "alpha")
    q = concat("SELECT * FROM t WHERE a='", escape_sql(id), "'")
  else
    q = concat("SELECT * FROM t WHERE a='", id, "'")
  end
  repeat 3
    q = concat(q, numeric(id))
  end
  sink sql q
end
`

func BenchmarkSvclangParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svclang.ParseOne(benchServiceSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSvclangExecute(b *testing.B) {
	svc, err := svclang.ParseOne(benchServiceSrc)
	if err != nil {
		b.Fatal(err)
	}
	req := svclang.Request{"id": "abc123", "mode": "alpha"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svclang.Execute(svc, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleAnalyze(b *testing.B) {
	svc, err := svclang.ParseOne(benchServiceSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svclang.AnalyzeProbing(svc, reference.Probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeOracle prices the ground-truth search strategies
// against each other on the same service: the influence-guided pruned
// search (the default) versus the exhaustive value-pool sweep. Labels
// are identical (TestAnalyzePruningMatchesExhaustive); only the probe
// count moves. Both run on the interpreter's reference.Probe, outside
// the engine's content-addressed ground-truth cache, which would absorb
// the repeat derivations. BENCH_pr9.json records this pair.
func BenchmarkAnalyzeOracle(b *testing.B) {
	svc, err := svclang.ParseOne(benchServiceSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		analyze func(*svclang.Service, svclang.ProbeFunc) ([]svclang.GroundTruth, error)
	}{
		{"pruned", svclang.AnalyzeProbing},
		{"exhaustive", svclang.AnalyzeProbingExhaustive},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				truths, err := mode.analyze(svc, reference.Probe)
				if err != nil {
					b.Fatal(err)
				}
				if len(truths) == 0 {
					b.Fatal("no ground truth")
				}
			}
		})
	}
}

// BenchmarkCorpusGeneration prices the content-addressed oracle cache:
// cold generates corpora whose service bodies the cache has never seen
// (a fresh seed per iteration), warm regenerates one fixed corpus whose
// every ground-truth derivation the cache already holds. BENCH_pr9.json
// records this pair. Fresh seeds still share template bodies with earlier
// iterations through the content-addressed cache, so "cold" converges on
// the steady state of a long-running process; run with -benchtime=1x in
// a fresh process for the truly cold first-corpus cost.
func BenchmarkCorpusGeneration(b *testing.B) {
	cfg := workload.Config{Services: 50, TargetPrevalence: 0.35}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(100000 + i)
			if _, err := workload.Generate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cfg.Seed = 424242
		if _, err := workload.Generate(cfg); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := workload.Generate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchCase(b *testing.B) workload.Case {
	b.Helper()
	tpl, ok := workload.TemplateByName("guarded-splice")
	if !ok {
		b.Fatal("template missing")
	}
	svc, _ := tpl.Build("bench", svclang.SinkSQL, true)
	truths, err := svclang.AnalyzeProbing(svc, reference.Probe)
	if err != nil {
		b.Fatal(err)
	}
	return workload.Case{Service: svc, Template: "guarded-splice", Difficulty: workload.Hard, Truths: truths}
}

// BenchmarkStaticSuite runs the five taint-analysis tools of the standard
// suite (ts-* and df-*) over a 1000-service seed-1 corpus, bound to one
// fresh compile cache per iteration as a campaign binds them, so B/op
// counts the CFG lowerings the tools share as well as their analyses.
func BenchmarkStaticSuite(b *testing.B) {
	corpus, err := workload.Generate(workload.Config{Services: 1000, TargetPrevalence: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	suite, err := detectors.StandardSuite()
	if err != nil {
		b.Fatal(err)
	}
	var static []detectors.Tool
	for _, tool := range suite {
		if name := tool.Name(); strings.HasPrefix(name, "ts-") || strings.HasPrefix(name, "df-") {
			static = append(static, tool)
		}
	}
	if len(static) != 5 {
		b.Fatalf("standard suite has %d taint-analysis tools, want 5", len(static))
	}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := cfg.NewCache()
		for _, tool := range static {
			if cct, ok := tool.(detectors.CompileCacheable); ok {
				tool = cct.WithCompileCache(cc)
			}
			for _, cs := range corpus.Cases {
				if _, err := tool.Analyze(cs, rng); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkPentester(b *testing.B) {
	cs := benchCase(b)
	tool := detectors.NewPentester(detectors.PentesterConfig{Name: "bench", ExploreInputs: true})
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tool.Analyze(cs, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.Config{
			Services:         20,
			TargetPrevalence: 0.35,
			Seed:             uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAHPPriorities(b *testing.B) {
	weights := []float64{9, 5, 3, 7, 2, 4, 6, 8, 1}
	pw, err := mcda.FromWeights(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.Priorities(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := stats.NewRNG(4)
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ranking.KendallTau(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCodes draws n uniform codes in [0, 16) and returns them with
// their mean-code statistic.
func benchCodes(seed uint64, n int) ([]uint8, func(cnt *[16]int) float64) {
	rng := stats.NewRNG(seed)
	codes := make([]uint8, n)
	for i := range codes {
		codes[i] = uint8(rng.Intn(16))
	}
	return codes, func(cnt *[16]int) float64 {
		sum := 0
		for code, k := range cnt {
			sum += code * k
		}
		return float64(sum) / float64(n)
	}
}

func BenchmarkBootstrapMean(b *testing.B) {
	rng := stats.NewRNG(5)
	codes, mean := benchCodes(5, 500)
	cfg := stats.BootstrapConfig{Resamples: 200, Confidence: 0.95}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.BootstrapCodes(rng, codes, cfg, mean); err != nil {
			b.Fatal(err)
		}
	}
}

// campaignWorkerCounts is the worker-pool sweep reported in README.md.
var campaignWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkCampaignWorkers measures the raw campaign harness at several
// pool sizes over one fixed corpus and tool suite. The output is
// byte-identical across sub-benchmarks (see TestRunCtxWorkerEquivalence
// in internal/harness); only the wall clock moves.
func BenchmarkCampaignWorkers(b *testing.B) {
	corpus, err := workload.Generate(workload.Config{
		Services:         200,
		TargetPrevalence: 0.35,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				camp, err := harness.RunCtx(context.Background(), corpus, tools, harness.Options{Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(camp.Results) == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}

// BenchmarkSvclangExecuteVM is the compiled-execution counterpart of
// BenchmarkSvclangExecute: the same service and request through the
// bytecode VM's pooled arenas. The pair prices the compilation work's
// single-service win inside one binary.
func BenchmarkSvclangExecuteVM(b *testing.B) {
	svc, err := svclang.ParseOne(benchServiceSrc)
	if err != nil {
		b.Fatal(err)
	}
	eng := compile.NewEngine()
	req := svclang.Request{"id": "abc123", "mode": "alpha"}
	if _, err := eng.ExecuteInSession(svc, req, nil); err != nil { // compile outside the loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteInSession(svc, req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3CampaignWorkers regenerates the E3 artefact end to end at
// several campaign pool sizes: the experiment-level view of the same
// sweep.
func BenchmarkE3CampaignWorkers(b *testing.B) {
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.QuickConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runner, err := experiments.NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := runner.RunCtx(context.Background(), "e3")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tables) == 0 {
					b.Fatal("e3 produced no tables")
				}
			}
		})
	}
}

// BenchmarkAllExperiments runs the entire `vdbench all` pipeline — every
// driver, shared campaign and profiles included — at several worker
// budgets. This is the tentpole sweep recorded in BENCH_pr4.json: the
// output is byte-identical across sub-benchmarks (see
// TestAllIdenticalAcrossWorkers in internal/experiments); only the wall
// clock moves with the budget.
func BenchmarkAllExperiments(b *testing.B) {
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.QuickConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runner, err := experiments.NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				results, err := runner.AllCtx(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(experiments.IDs()) {
					b.Fatalf("got %d results", len(results))
				}
			}
		})
	}
}

// BenchmarkBootstrapWorkers sweeps the resampling loop's worker budget on
// a bootstrap large enough for per-block fan-out to matter. Intervals are
// byte-identical across sub-benchmarks (TestBootstrapCodesMatchesIndexed).
func BenchmarkBootstrapWorkers(b *testing.B) {
	codes, mean := benchCodes(5, 2000)
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := stats.BootstrapConfig{Resamples: 2000, Confidence: 0.95, Workers: workers}
			rng := stats.NewRNG(6)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stats.BootstrapCodes(rng, codes, cfg, mean); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE14Combination(b *testing.B) { benchExperiment(b, "e14") }

func BenchmarkE15DecisionImpact(b *testing.B) { benchExperiment(b, "e15") }

func BenchmarkE16FailureMap(b *testing.B) { benchExperiment(b, "e16") }

func BenchmarkE17Redundancy(b *testing.B) { benchExperiment(b, "e17") }

func BenchmarkE18Degradation(b *testing.B) { benchExperiment(b, "e18") }

// BenchmarkCampaignEngineOverhead prices the fault-tolerant execution
// layer on a fault-free campaign: the same 200-service standard-suite
// run with no guards versus with every guard armed (per-tool deadline,
// retry budget, skip policy). With a well-behaved suite no deadline
// fires and no retry happens, so the gap is pure bookkeeping — context
// plumbing, panic-isolation frames and ledger accounting. BENCH_pr5.json
// records the sweep against the PR 4 baseline (<5% required).
func BenchmarkCampaignEngineOverhead(b *testing.B) {
	corpus, err := workload.Generate(workload.Config{
		Services:         200,
		TargetPrevalence: 0.35,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts harness.Options
	}{
		{"plain", harness.Options{Seed: 1, Workers: 1}},
		{"guarded", harness.Options{
			Seed:           1,
			Workers:        1,
			PerToolTimeout: 30 * time.Second,
			Retry:          harness.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
			Degraded:       harness.DegradedSkip,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				camp, err := harness.RunCtx(context.Background(), corpus, tools, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(camp.Results) == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}
