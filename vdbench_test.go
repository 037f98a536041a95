package vdbench

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	corpus, err := GenerateWorkload(WorkloadConfig{
		Services:         40,
		TargetPrevalence: 0.35,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tools, err := StandardTools()
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := RunCampaignCtx(context.Background(), corpus, tools, CampaignOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recall := MustMetric("recall")
	for _, res := range campaign.Results {
		v, err := res.MetricValue(recall)
		if err != nil {
			t.Fatalf("%s: %v", res.Tool, err)
		}
		if v < 0 || v > 1 {
			t.Fatalf("%s recall = %g", res.Tool, v)
		}
	}
}

func TestFacadeParallelCampaignMatchesSerial(t *testing.T) {
	corpus, err := GenerateWorkload(WorkloadConfig{
		Services:         40,
		TargetPrevalence: 0.35,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tools, err := StandardTools()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunCampaignCtx(context.Background(), corpus, tools, CampaignOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		par, err := RunCampaignCtx(context.Background(), corpus, tools, CampaignOptions{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Results {
			if par.Results[i].Overall != serial.Results[i].Overall {
				t.Fatalf("workers=%d: %s matrix diverged from serial", workers, serial.Results[i].Tool)
			}
		}
	}
}

func TestFacadeMetricLookup(t *testing.T) {
	if len(Metrics()) < 25 {
		t.Fatal("catalogue too small")
	}
	if _, ok := MetricByID("mcc"); !ok {
		t.Fatal("mcc missing")
	}
	if _, ok := MetricByID("bogus"); ok {
		t.Fatal("bogus metric resolved")
	}
}

func TestFacadeScenarioSelection(t *testing.T) {
	profiles, err := AnalyzeMetrics(PropConfig{
		MonotonicitySamples:  300,
		WorkloadSize:         600,
		StabilityTrials:      60,
		DiscriminationTrials: 80,
		Tolerance:            1e-9,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := ScenarioByID("dev-triage")
	if !ok {
		t.Fatal("dev-triage missing")
	}
	sel, err := SelectMetric(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best() == "" {
		t.Fatal("no winner")
	}
	val, err := ValidateSelection(s, profiles, 5, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !val.AHP.Consistency.Consistent() {
		t.Fatalf("CR = %g", val.AHP.Consistency.CR)
	}
}

func TestFacadeParsePrintRoundTrip(t *testing.T) {
	src := "service S\n  param x\n  sink sql concat(\"Q='\", x, \"'\")\nend\n"
	services, err := ParseServices(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := PrintService(services[0])
	if !strings.Contains(printed, "sink sql") {
		t.Fatalf("printed form: %s", printed)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(ExperimentIDs()) != 18 {
		t.Fatal("experiment registry wrong")
	}
	res, err := RunExperiment("e1", QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "E1") {
		t.Fatal("experiment output malformed")
	}
	if _, err := RunExperiment("e1", ExperimentConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if err := DefaultExperimentConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCriteria(t *testing.T) {
	if len(Criteria()) != 9 {
		t.Fatal("criteria catalogue wrong")
	}
	if len(Scenarios()) != 4 {
		t.Fatal("scenario catalogue wrong")
	}
}

func TestFacadeDefaultPropConfig(t *testing.T) {
	if err := DefaultPropConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCombineAndLoad(t *testing.T) {
	corpus, err := LoadWorkload(`
service A
  param x
  sink sql concat("Q='", x, "'")
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.VulnerableSinks() != 1 {
		t.Fatalf("oracle label wrong: %d vulnerable", corpus.VulnerableSinks())
	}
	tools, err := StandardTools()
	if err != nil {
		t.Fatal(err)
	}
	combo, err := CombineTools("duo", Union, tools[:2])
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := RunCampaignCtx(context.Background(), corpus, []Tool{combo}, CampaignOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if campaign.Results[0].Overall.TP != 1 {
		t.Fatalf("combined tool missed the splice: %+v", campaign.Results[0].Overall)
	}
	if _, err := CombineTools("bad", CombineMode(99), tools[:2]); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := LoadWorkload("garbage"); err == nil {
		t.Fatal("garbage corpus accepted")
	}
}

func TestFacadeStatsHelpers(t *testing.T) {
	iv, err := WilsonInterval(8, 10, 0.95)
	if err != nil || !iv.Contains(0.8) {
		t.Fatalf("Wilson = %+v, %v", iv, err)
	}
	corpus, err := GenerateWorkload(WorkloadConfig{Services: 30, TargetPrevalence: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tools, err := StandardTools()
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := RunCampaignCtx(context.Background(), corpus, tools, CampaignOptions{Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareTools(&campaign.Results[0], &campaign.Results[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0 || res.PValue > 1 {
		t.Fatalf("p = %g", res.PValue)
	}
	if _, err := CompareTools(nil, &campaign.Results[0]); err == nil {
		t.Fatal("nil result accepted")
	}
}

// TestFacadeServiceSurface covers the facade additions the service layer
// is built on: the experiment catalogue, the render-format list, and the
// workers-invariant cache key.
func TestFacadeServiceSurface(t *testing.T) {
	infos := Experiments()
	ids := ExperimentIDs()
	if len(infos) != len(ids) {
		t.Fatalf("Experiments() has %d entries, ExperimentIDs() %d", len(infos), len(ids))
	}
	for i, info := range infos {
		if info.ID != ids[i] || info.Title == "" {
			t.Fatalf("Experiments()[%d] = %+v, want ID %s with a title", i, info, ids[i])
		}
	}
	formats := ResultFormats()
	if len(formats) != 4 {
		t.Fatalf("ResultFormats() = %v", formats)
	}

	cfg := DefaultExperimentConfig()
	key := ExperimentCacheKey("e3", cfg)
	if len(key) != 64 {
		t.Fatalf("cache key %q is not a SHA-256 hex digest", key)
	}
	other := cfg
	other.Workers = cfg.Workers + 7
	if ExperimentCacheKey("e3", other) != key {
		t.Fatal("cache key depends on Workers; memoisation across worker counts broken")
	}
	other = cfg
	other.Seed++
	if ExperimentCacheKey("e3", other) == key {
		t.Fatal("cache key ignores the seed")
	}
}
