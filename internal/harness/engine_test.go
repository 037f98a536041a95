package harness

import (
	"context"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// TestReferenceEngineCampaignEquivalence runs a campaign through the
// runCtx seam on compile.NewReferenceEngine (the tree-walking
// interpreter) and requires it deep-equal to RunCtx on the production
// bytecode VM, at every worker count. The engines are locked together
// at the language level by the differential suite in
// internal/svclang/compile; this test closes the loop at the campaign
// level, ledger and all.
func TestReferenceEngineCampaignEquivalence(t *testing.T) {
	corpus := testCorpus(t, 50, 3)
	tools := testTools(t)
	for _, seed := range []uint64{1, 7, 42} {
		ref, err := runCtx(context.Background(), corpus, tools, Options{Seed: seed, Workers: 1}, compile.NewReferenceEngine())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 13} {
			vm, err := RunCtx(context.Background(), corpus, tools, Options{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, vm) {
				t.Fatalf("seed %d: VM campaign at %d workers differs from reference-engine campaign", seed, workers)
			}
		}
	}
}

// campaignAllocBudget is the measured per-run heap allocation count of a
// 200-service standard-suite campaign on the bytecode VM (RunCtx,
// workers=1). The budget test fails when a change regresses allocations
// by more than 10% — the guard that keeps the VM's arena discipline from
// eroding. Re-measure with
// `go test -run TestAllocBudgetCampaign -v .` and update deliberately
// when the campaign legitimately grows.
const campaignAllocBudget = 36_600

// TestAllocBudgetCampaign is the campaign-level allocation budget of the
// bytecode-execution work: the whole 200-service standard-suite campaign
// must stay within 10% of the recorded budget. Skipped under -race
// (instrumentation allocates) and -short (the campaign runs several
// times).
func TestAllocBudgetCampaign(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("campaign allocation measurement is slow")
	}
	corpus := testCorpus(t, 200, 1)
	tools := testTools(t)
	run := func() {
		camp, err := RunCtx(context.Background(), corpus, tools, Options{Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(camp.Results) == 0 {
			t.Fatal("empty campaign")
		}
	}
	run() // warm package-level lazy state out of the measurement
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("campaign allocations: %.0f per run (budget %d)", allocs, campaignAllocBudget)
	if allocs > campaignAllocBudget*1.10 {
		t.Errorf("campaign allocates %.0f per run, more than 10%% over the %d budget; rerun the measurement and update the budget only for a deliberate cost", allocs, campaignAllocBudget)
	}
}

// engineProbe is a stand-in dynamic tool: it reports nothing and records
// the execution engine it analysed under.
type engineProbe struct {
	name   string
	eng    *compile.Engine
	record func(name string, eng *compile.Engine)
}

func (p *engineProbe) Name() string           { return p.name }
func (p *engineProbe) Class() detectors.Class { return detectors.ClassDAST }

func (p *engineProbe) Analyze(workload.Case, *stats.RNG) ([]detectors.Report, error) {
	p.record(p.name, p.eng)
	return nil, nil
}

func (p *engineProbe) WithExecEngine(eng *compile.Engine) detectors.Tool {
	clone := *p
	clone.eng = eng
	return &clone
}

// TestBindExecEngineReachesFaultyWrapped: a dynamic tool wrapped for
// fault injection must be rebound to the campaign's shared engine like
// a bare one, not keep its private engine behind the wrapper.
func TestBindExecEngineReachesFaultyWrapped(t *testing.T) {
	seen := map[string]*compile.Engine{}
	record := func(name string, eng *compile.Engine) { seen[name] = eng }
	wrapped, err := faulty.Wrap(&engineProbe{name: "wrapped", record: record}, faulty.Config{Mode: faulty.ModePanic})
	if err != nil {
		t.Fatal(err)
	}
	bound := bindExecEngine([]detectors.Tool{wrapped, &engineProbe{name: "bare", record: record}}, compile.NewEngine())
	cs := testCorpus(t, 5, 1).Cases[0]
	for _, tool := range bound {
		if _, err := tool.Analyze(cs, stats.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
	}
	if seen["bare"] == nil {
		t.Fatal("bare probe was not bound to an engine")
	}
	if seen["wrapped"] != seen["bare"] {
		t.Fatal("faulty-wrapped probe did not run under the campaign's shared engine")
	}
}
