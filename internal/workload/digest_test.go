package workload

import (
	"fmt"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// carriesDigest fails unless cs carries its service's digest from
// labelling, so Digest answers without hashing.
func carriesDigest(t *testing.T, label string, cs Case) {
	t.Helper()
	if cs.digested != cs.Service || cs.digest != cs.Service.Digest() {
		t.Fatalf("%s: %s does not carry its service's digest", label, cs.Service.Name)
	}
	if cs.Digest() != cs.digest {
		t.Fatalf("%s: %s: Digest() is not the carried digest", label, cs.Service.Name)
	}
}

// TestCasesCarryTheirDigest: every case Generate labels, at the
// experiments' default (500 services) and quick (80) sizes over seeds
// 1-3, and every case FromServices labels, carries the digest of its
// service.
func TestCasesCarryTheirDigest(t *testing.T) {
	for _, services := range []int{500, 80} {
		for seed := uint64(1); seed <= 3; seed++ {
			corpus, err := Generate(Config{Services: services, TargetPrevalence: 0.35, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range corpus.Cases {
				carriesDigest(t, fmt.Sprintf("Generate(%d, seed %d)", services, seed), cs)
			}
		}
	}
	services, err := svclang.Parse(`
service A
  param p
  sink sql concat("'", p, "'")
end

service B
  param p
  sink sql concat("'", p, "'")
end
`)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := FromServices(services)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus.Cases {
		carriesDigest(t, "FromServices", cs)
	}
}

// TestCaseDigestDerivedWhenAbsent: a struct-literal case, and a copy of
// a labelled case whose Service was replaced, derive the digest of the
// service they hold instead of reading a carried one.
func TestCaseDigestDerivedWhenAbsent(t *testing.T) {
	corpus, err := Generate(Config{Services: 40, TargetPrevalence: 0.35, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := corpus.Cases[0], corpus.Cases[1]
	if a.Digest() == b.Digest() {
		t.Fatal("the first two cases share a body; pick cases of two bodies")
	}
	if lit := (Case{Service: a.Service}); lit.Digest() != a.Service.Digest() {
		t.Fatal("a struct-literal case does not derive its digest")
	}
	swapped := b
	swapped.Service = a.Service
	if swapped.Digest() != a.Service.Digest() {
		t.Fatal("a case whose Service was replaced kept the old service's digest")
	}
}

// TestPickTemplateMatchesEligibleSlice pins pickTemplate to the draw it
// replaces, one rng.Intn over a slice of the eligible templates, for
// every bucket and kind, so the corpus stream cannot move.
func TestPickTemplateMatchesEligibleSlice(t *testing.T) {
	for _, d := range []Difficulty{Easy, Medium, Hard} {
		bucket := TemplatesByDifficulty(d)
		for _, kind := range svclang.AllSinkKinds() {
			var eligible []Template
			for _, tpl := range bucket {
				if tpl.SupportsKind(kind) {
					eligible = append(eligible, tpl)
				}
			}
			got, want := stats.NewRNG(uint64(kind)), stats.NewRNG(uint64(kind))
			for i := 0; i < 200; i++ {
				g, w := pickTemplate(got, bucket, kind), eligible[want.Intn(len(eligible))]
				if g.Name != w.Name {
					t.Fatalf("%s/%s draw %d: picked %s, want %s", d, kind, i, g.Name, w.Name)
				}
			}
		}
	}
}
