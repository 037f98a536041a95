package workload

import (
	"errors"
	"math"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
)

func TestTemplatesCoverAllDifficulties(t *testing.T) {
	for _, d := range []Difficulty{Easy, Medium, Hard} {
		if len(TemplatesByDifficulty(d)) == 0 {
			t.Errorf("no templates at difficulty %s", d)
		}
	}
}

func TestEveryBucketHasAllKindsTemplate(t *testing.T) {
	// pickTemplate relies on each bucket supporting every kind.
	for _, d := range []Difficulty{Easy, Medium, Hard} {
		for _, k := range svclang.AllSinkKinds() {
			found := false
			for _, tpl := range TemplatesByDifficulty(d) {
				if tpl.SupportsKind(k) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("difficulty %s has no template for kind %s", d, k)
			}
		}
	}
}

func TestTemplateByName(t *testing.T) {
	tpl, ok := TemplateByName("direct-splice")
	if !ok || tpl.Name != "direct-splice" {
		t.Fatal("direct-splice not found")
	}
	if _, ok := TemplateByName("nonsense"); ok {
		t.Fatal("bogus template resolved")
	}
}

// TestAllTemplatesAgreeWithOracle is the core cross-validation: for every
// template, kind and variant, the declared labels must match the
// exhaustive structural-taint oracle. This is the guarantee that corpus
// ground truth can never be wrong.
func TestAllTemplatesAgreeWithOracle(t *testing.T) {
	for _, tpl := range Templates() {
		for _, kind := range tpl.Kinds {
			for _, vulnerable := range []bool{false, true} {
				svc, expected := tpl.Build("t", kind, vulnerable)
				if err := svc.Validate(); err != nil {
					t.Fatalf("%s/%s vulnerable=%v: invalid service: %v", tpl.Name, kind, vulnerable, err)
				}
				truths, err := svclang.AnalyzeProbing(svc, reference.Probe)
				if err != nil {
					t.Fatalf("%s/%s vulnerable=%v: oracle: %v", tpl.Name, kind, vulnerable, err)
				}
				if len(truths) != len(expected) {
					t.Fatalf("%s/%s: %d sinks declared, %d found", tpl.Name, kind, len(expected), len(truths))
				}
				for j := range expected {
					if truths[j].Vulnerable != expected[j] {
						t.Errorf("%s/%s vulnerable=%v sink %d: declared %v, oracle %v\n%s",
							tpl.Name, kind, vulnerable, j, expected[j], truths[j].Vulnerable, svclang.Print(svc))
					}
				}
			}
		}
	}
}

func TestTemplateVariantsDiffer(t *testing.T) {
	// Except for constant-sink and dead-sink (whose "vulnerable" flag
	// changes the live sink), the vulnerable flag must change at least one
	// label.
	for _, tpl := range Templates() {
		if tpl.Name == "constant-sink" {
			continue
		}
		kind := tpl.Kinds[0]
		_, safeLabels := tpl.Build("s", kind, false)
		_, vulnLabels := tpl.Build("v", kind, true)
		same := true
		for i := range safeLabels {
			if safeLabels[i] != vulnLabels[i] {
				same = false
			}
		}
		if same {
			t.Errorf("%s: vulnerable flag has no effect on labels", tpl.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Services: 25, TargetPrevalence: 0.4, Seed: 7}
	c1, err1 := Generate(cfg)
	c2, err2 := Generate(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if c1.Sources() != c2.Sources() {
		t.Fatal("same seed generated different corpora")
	}
	if len(c1.Cases) != 25 {
		t.Fatalf("generated %d cases", len(c1.Cases))
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(Config{Services: 25, TargetPrevalence: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Services: 25, TargetPrevalence: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sources() == b.Sources() {
		t.Fatal("different seeds generated identical corpora")
	}
}

func TestGeneratePrevalenceTracksTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.35, 0.7} {
		c, err := Generate(Config{Services: 300, TargetPrevalence: target, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		got := c.Prevalence()
		// Templates add mandatory safe sinks, so realised prevalence sits
		// somewhat below target; allow a generous but bounded band.
		if math.Abs(got-target) > 0.12 {
			t.Errorf("target %g realised %g", target, got)
		}
	}
}

func TestGenerateRespectsKindFilter(t *testing.T) {
	c, err := Generate(Config{
		Services:         40,
		TargetPrevalence: 0.5,
		Kinds:            []svclang.SinkKind{svclang.SinkSQL},
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKind := c.ByKind()
	if len(byKind) != 1 || byKind[svclang.SinkSQL] == 0 {
		t.Fatalf("kind filter violated: %v", byKind)
	}
}

func TestGenerateMixSkew(t *testing.T) {
	hardOnly, err := Generate(Config{
		Services:         60,
		TargetPrevalence: 0.5,
		Mix:              DifficultyMix{Hard: 1},
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range hardOnly.Cases {
		if cs.Difficulty != Hard {
			t.Fatalf("hard-only mix produced %s case %s", cs.Difficulty, cs.Service.Name)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Services: 0, TargetPrevalence: 0.5},
		{Services: 10, TargetPrevalence: -0.1},
		{Services: 10, TargetPrevalence: 1.1},
		{Services: 10, TargetPrevalence: 0.5, Mix: DifficultyMix{Easy: 0.5, Medium: 0.5, Hard: 0.5}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGeneratedSourcesReparse(t *testing.T) {
	c, err := Generate(Config{Services: 30, TargetPrevalence: 0.4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	services, err := svclang.Parse(c.Sources())
	if err != nil {
		t.Fatalf("generated corpus does not reparse: %v", err)
	}
	if len(services) != len(c.Cases) {
		t.Fatalf("reparsed %d of %d services", len(services), len(c.Cases))
	}
	for i, svc := range services {
		if svc.Name != c.Cases[i].Service.Name {
			t.Fatalf("service %d name mismatch: %s vs %s", i, svc.Name, c.Cases[i].Service.Name)
		}
	}
}

func TestGenerateUniqueNames(t *testing.T) {
	c, err := Generate(Config{Services: 100, TargetPrevalence: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, cs := range c.Cases {
		if seen[cs.Service.Name] {
			t.Fatalf("duplicate service name %s", cs.Service.Name)
		}
		seen[cs.Service.Name] = true
	}
}

func TestCorpusCounters(t *testing.T) {
	c, err := Generate(Config{Services: 50, TargetPrevalence: 0.5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalSinks() < 50 {
		t.Fatalf("total sinks %d < services", c.TotalSinks())
	}
	if c.VulnerableSinks() <= 0 || c.VulnerableSinks() >= c.TotalSinks() {
		t.Fatalf("vulnerable sinks %d of %d implausible", c.VulnerableSinks(), c.TotalSinks())
	}
	sum := 0
	for _, n := range c.ByKind() {
		sum += n
	}
	if sum != c.TotalSinks() {
		t.Fatalf("ByKind sums to %d, want %d", sum, c.TotalSinks())
	}
}

func TestDifficultyString(t *testing.T) {
	if Easy.String() != "easy" || Medium.String() != "medium" || Hard.String() != "hard" {
		t.Fatal("difficulty names wrong")
	}
	if Difficulty(9).String() == "" {
		t.Fatal("unknown difficulty should render")
	}
}

func TestDefaultMixValid(t *testing.T) {
	if err := DefaultMix().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigRejectsUnknownKinds keeps an out-of-range sink kind from
// reaching template selection, which has no template to draw for it.
func TestConfigRejectsUnknownKinds(t *testing.T) {
	for _, k := range []svclang.SinkKind{0, 99, -1} {
		cfg := Config{Services: 3, TargetPrevalence: 0.5, Kinds: []svclang.SinkKind{svclang.SinkSQL, k}, Seed: 1}
		if err := cfg.Validate(); err == nil {
			t.Errorf("kind %d: Validate accepted it", int(k))
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("kind %d: Generate accepted it", int(k))
		}
	}
}

func TestErrLabelMismatchIsTyped(t *testing.T) {
	// Synthesize a mismatch by corrupting a template copy; the exported
	// error must be matchable with errors.Is through the wrap.
	err := ErrLabelMismatch
	if !errors.Is(err, ErrLabelMismatch) {
		t.Fatal("identity check failed")
	}
}

func TestFromSources(t *testing.T) {
	src := `
service External1
  param id
  sink sql concat("Q='", id, "'")
end

service External2
  param id
  sink sql concat("Q='", escape_sql(id), "'")
end
`
	corpus, err := FromSources(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Cases) != 2 {
		t.Fatalf("cases = %d", len(corpus.Cases))
	}
	if !corpus.Cases[0].Truths[0].Vulnerable {
		t.Fatal("raw splice should be labelled vulnerable")
	}
	if corpus.Cases[1].Truths[0].Vulnerable {
		t.Fatal("escaped splice should be labelled safe")
	}
	for _, cs := range corpus.Cases {
		if cs.Template != "external" || cs.Difficulty != Medium {
			t.Fatalf("external case metadata wrong: %+v", cs)
		}
	}
}

func TestFromSourcesErrors(t *testing.T) {
	if _, err := FromSources("not a service"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := FromSources(""); err == nil {
		t.Error("empty input accepted")
	}
	// Duplicate names rejected.
	dup := "service X\n  param a\n  sink sql a\nend\nservice X\n  param a\n  sink sql a\nend\n"
	if _, err := FromSources(dup); err == nil {
		t.Error("duplicate names accepted")
	}
	// Too many parameters for the oracle.
	big := "service Big\n  param a\n  param b\n  param c\n  param d\n  sink sql a\nend\n"
	if _, err := FromSources(big); err == nil {
		t.Error("oracle limit not enforced")
	}
}

func TestFromServicesNil(t *testing.T) {
	if _, err := FromServices(nil); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := FromServices([]*svclang.Service{nil}); err == nil {
		t.Error("nil service accepted")
	}
}

func TestGeneratedCorpusRoundTripsThroughFromSources(t *testing.T) {
	gen, err := Generate(Config{Services: 20, TargetPrevalence: 0.4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := FromSources(gen.Sources())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalSinks() != gen.TotalSinks() {
		t.Fatalf("sink count changed: %d vs %d", loaded.TotalSinks(), gen.TotalSinks())
	}
	if loaded.VulnerableSinks() != gen.VulnerableSinks() {
		t.Fatalf("labels changed across round trip: %d vs %d",
			loaded.VulnerableSinks(), gen.VulnerableSinks())
	}
}
