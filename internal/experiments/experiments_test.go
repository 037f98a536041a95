package experiments

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedRunner executes against QuickConfig once per test binary; the
// drivers cache the campaign and profiles internally.
var (
	runnerOnce sync.Once
	runnerVal  *Runner
	runnerErr  error
)

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	runnerOnce.Do(func() {
		runnerVal, runnerErr = NewRunner(QuickConfig())
	})
	if runnerErr != nil {
		t.Fatal(runnerErr)
	}
	return runnerVal
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Services = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero services accepted")
	}
	bad = DefaultConfig()
	bad.Prevalence = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("prevalence > 1 accepted")
	}
	bad = DefaultConfig()
	bad.PanelSigma = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	bad = DefaultConfig()
	bad.Workers = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative worker count accepted")
	}
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("zero config accepted by NewRunner")
	}
}

func TestIDsAndUnknown(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("ids = %v", ids)
	}
	r := quickRunner(t)
	if _, err := r.Run("e99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := r.Run(" E1 "); err != nil {
		t.Fatalf("ID normalisation failed: %v", err)
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	r := quickRunner(t)
	results, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if res.ID == "" || res.Title == "" {
			t.Errorf("result %q missing metadata", res.ID)
		}
		if len(res.Tables) == 0 && len(res.Figures) == 0 {
			t.Errorf("%s produced no artefacts", res.ID)
		}
		out := res.String()
		if !strings.Contains(out, strings.ToUpper(res.ID)+":") {
			t.Errorf("%s render missing header: %q", res.ID, out[:60])
		}
	}
}

func TestE1CoversCatalog(t *testing.T) {
	res, err := quickRunner(t).Run("e1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() < 25 {
		t.Fatalf("E1 lists %d metrics", res.Tables[0].NumRows())
	}
	out := res.String()
	for _, want := range []string{"mcc", "informedness", "precision", "Youden"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 missing %q", want)
		}
	}
}

func TestE2PropertyShape(t *testing.T) {
	res, err := quickRunner(t).Run("e2")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Tables[0].String()
	// Accuracy row must show a visible prevalence spread; informedness 0.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "informedness":
			if fields[5] != "0" {
				t.Errorf("informedness prev-spread = %s, want 0", fields[5])
			}
		case "accuracy":
			if fields[5] == "0" {
				t.Error("accuracy prev-spread should be non-zero")
			}
		}
	}
}

func TestE3MatricesConsistent(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Run("e3")
	if err != nil {
		t.Fatal(err)
	}
	camp, err := r.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() != len(camp.Results) {
		t.Fatalf("E3 rows = %d, tools = %d", res.Tables[0].NumRows(), len(camp.Results))
	}
}

func TestE4UndefHandling(t *testing.T) {
	res, err := quickRunner(t).Run("e4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() != 9 {
		t.Fatalf("E4 rows = %d", res.Tables[0].NumRows())
	}
}

func TestE5ShowsDisagreement(t *testing.T) {
	res, err := quickRunner(t).Run("e5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("E5 tables = %d", len(res.Tables))
	}
	// The tau matrix must contain clearly weak correlations: recall-leaning
	// and alarm-leaning metrics rank the tools far from identically. With
	// the CFG dataflow engines in the suite — tools near the top of both
	// the recall and the specificity ranking — the correlation is positive
	// but must stay well below strong agreement (see EXPERIMENTS.md, E5).
	csv := res.Tables[1].CSV()
	var recallRow []string
	for _, line := range strings.Split(csv, "\n") {
		if strings.HasPrefix(line, "recall,") {
			recallRow = strings.Split(line, ",")
		}
	}
	if recallRow == nil {
		t.Fatalf("no recall row in E5b:\n%s", csv)
	}
	header := strings.Split(strings.Split(csv, "\n")[0], ",")
	for i, name := range header {
		if name == "specificity" {
			v := recallRow[i]
			tau, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable tau %q", v)
			}
			if tau >= 0.5 {
				t.Errorf("tau(recall, specificity) = %s, expected weak (< 0.5)", v)
			}
		}
	}
}

func TestE6Shapes(t *testing.T) {
	res, err := quickRunner(t).Run("e6")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 2 || len(res.Tables) != 1 {
		t.Fatalf("E6 artefacts: %d figures, %d tables", len(res.Figures), len(res.Tables))
	}
	// Figure 1: find the accuracy and informedness series, check spreads.
	var accSpread, infSpread float64
	for _, s := range res.Figures[0].Series {
		lo, hi := s.Y[0], s.Y[0]
		for _, y := range s.Y {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		switch s.Name {
		case "accuracy":
			accSpread = hi - lo
		case "informedness":
			infSpread = hi - lo
		}
	}
	// At TPR=0.70/FPR=0.10 the analytic accuracy spread over p in
	// [0.01, 0.9] is (1-0.01)·Δ... ≈ 0.178; anything above 0.15 shows the
	// prevalence dependence clearly.
	if accSpread < 0.15 {
		t.Errorf("accuracy prevalence spread = %g, want large", accSpread)
	}
	if infSpread > 0.02 {
		t.Errorf("informedness prevalence spread = %g, want ~0", infSpread)
	}
	// The companion table must show the accuracy verdict flipping while
	// informedness never does.
	csv := res.Tables[0].CSV()
	if !strings.Contains(csv, ",B,A") {
		t.Errorf("no accuracy flip found in E6c:\n%s", csv)
	}
	if strings.Contains(csv, ",B\n") {
		t.Errorf("informedness should always prefer A:\n%s", csv)
	}
}

func TestE7StabilityBounds(t *testing.T) {
	res, err := quickRunner(t).Run("e7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() != 8 { // 9 tools -> 8 adjacent pairs
		t.Fatalf("E7 rows = %d", res.Tables[0].NumRows())
	}
}

func TestE8FamilyHits(t *testing.T) {
	res, err := quickRunner(t).Run("e8")
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Tables[0].CSV()
	if strings.Contains(csv, ",no\n") {
		t.Errorf("an E8 scenario missed its expected family:\n%s", csv)
	}
}

func TestE9ConsistencyAndAgreement(t *testing.T) {
	res, err := quickRunner(t).Run("e9")
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Tables[0].CSV()
	if strings.Contains(csv, ",no,") {
		t.Errorf("an E9 panel failed the consistency check:\n%s", csv)
	}
}

func TestE10MonotoneDegradation(t *testing.T) {
	res, err := quickRunner(t).Run("e10")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Figures[0].Series {
		if s.Y[0] < 0.7 {
			t.Errorf("%s: low-noise winner agreement = %g, want >= 0.7", s.Name, s.Y[0])
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Errorf("%s: agreement %g out of [0,1]", s.Name, y)
			}
		}
	}
}

func TestRunnerCaching(t *testing.T) {
	r := quickRunner(t)
	c1, err := r.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("campaign not cached")
	}
	p1, err := r.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Fatal("profiles not cached")
	}
}

func TestE11MethodsAgree(t *testing.T) {
	res, err := quickRunner(t).Run("e11")
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Tables[0].CSV()
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			t.Fatalf("row %q malformed", line)
		}
		// All pairwise taus must be clearly positive.
		for _, tau := range fields[5:] {
			if strings.HasPrefix(tau, "-") || tau == "0" {
				t.Errorf("scenario %s: method disagreement, tau=%s", fields[0], tau)
			}
		}
	}
}

func TestE12AUCAboveChance(t *testing.T) {
	res, err := quickRunner(t).Run("e12")
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Tables[0].CSV()
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("row %q malformed", line)
		}
		if strings.HasPrefix(fields[2], "0.4") || strings.HasPrefix(fields[2], "0.3") {
			t.Errorf("%s: AUC %s at or below chance", fields[0], fields[2])
		}
	}
}

func TestE13GapsBounded(t *testing.T) {
	res, err := quickRunner(t).Run("e13")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].NumRows() != 9 {
		t.Fatalf("E13 rows = %d", res.Tables[0].NumRows())
	}
}

func TestE16MechanismsLandOnDesignedTools(t *testing.T) {
	res, err := quickRunner(t).Run("e16")
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Tables[0].CSV()
	header := strings.Split(strings.Split(csv, "\n")[0], ",")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		fields := strings.Split(line, ",")
		tpl := fields[0]
		get := func(tool string) string { return fields[col[tool]] }
		switch tpl {
		case "silent-sink":
			// Static tools see silent sinks perfectly; only DAST can lose.
			if get("ts-precise") != "1" {
				t.Errorf("silent-sink should not affect static analysis: %s", line)
			}
		case "wrong-sanitizer":
			if get("ts-precise") != "1" || get("pt-deep") != "1" {
				t.Errorf("sink-aware and dynamic tools should ace wrong-sanitizer: %s", line)
			}
		case "constant-sink", "direct-splice":
			for _, tool := range []string{"ts-precise", "ts-aggressive", "ts-lite", "grep-sast", "df-precise", "df-stateless", "pt-deep", "pt-fast"} {
				if get(tool) != "1" {
					t.Errorf("%s: deterministic tool %s below 1: %s", tpl, tool, line)
				}
			}
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Two fresh runners with identical config must render byte-identical
	// output for every campaign- and profile-based experiment.
	cfg := QuickConfig()
	r1, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e2", "e3", "e5", "e9", "e16"} {
		a, err := r1.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s output is not deterministic", id)
		}
	}
}

// TestE1MatchesGolden pins the metric catalogue's rendered form: an
// accidental change to a formula, range or reference shows up as a diff
// against the snapshot. Regenerate deliberately with:
//
//	go run ./cmd/vdbench -quick e1 > internal/experiments/testdata/e1_golden.txt
func TestE1MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/e1_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := quickRunner(t).Run("e1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != string(golden) {
		t.Fatalf("E1 output diverged from the golden snapshot; if intentional, regenerate it\ngot:\n%s", got)
	}
}

// TestE3MatchesGoldenAcrossWorkers pins the campaign's rendered raw
// results and proves the worker pool does not perturb them: the E3 table
// must match the snapshot byte for byte at every tested worker count.
// Regenerate deliberately with:
//
//	go run ./cmd/vdbench -quick -workers 1 e3 > internal/experiments/testdata/e3_golden.txt
func TestE3MatchesGoldenAcrossWorkers(t *testing.T) {
	golden, err := os.ReadFile("testdata/e3_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := QuickConfig()
		cfg.Workers = workers
		runner, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run("e3")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); got != string(golden) {
			t.Fatalf("E3 output with workers=%d diverged from the golden snapshot\ngot:\n%s", workers, got)
		}
	}
}

// TestResamplingExperimentsMatchGoldenAcrossWorkers pins the experiments
// whose statistics run on the resampling kernels, on baseline replay and
// on reused MCDA buffers (E4's bootstrap intervals, E7's sign stability,
// E10's perturbed panels, E14's replayed members, E18's fault campaigns)
// at two worker counts. Regenerate deliberately with:
//
//	for e in e4 e7 e10 e14 e18; do go run ./cmd/vdbench -quick -workers 1 $e > internal/experiments/testdata/${e}_golden.txt; done
func TestResamplingExperimentsMatchGoldenAcrossWorkers(t *testing.T) {
	ids := []string{"e4", "e7", "e10", "e14", "e18"}
	golden := map[string]string{}
	for _, id := range ids {
		b, err := os.ReadFile("testdata/" + id + "_golden.txt")
		if err != nil {
			t.Fatal(err)
		}
		golden[id] = string(b)
	}
	for _, workers := range []int{1, 4} {
		cfg := QuickConfig()
		cfg.Workers = workers
		runner, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			res, err := runner.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got != golden[id] {
				t.Fatalf("%s output with workers=%d diverged from the golden snapshot\ngot:\n%s", strings.ToUpper(id), workers, got)
			}
		}
	}
}
