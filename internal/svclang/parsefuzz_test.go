package svclang_test

// FuzzParse sits in an external test package so it can seed its corpus
// from the internal/workload template library (workload imports svclang,
// so the in-package test cannot import it back).

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// FuzzParse asserts the parser's total-function contract: arbitrary input
// either fails with an error — never a panic — or yields services that
// validate, execute, and survive a parse→print→parse round trip with a
// deeply equal AST (sink IDs are positional in both Print and Parse, so
// exact equality is the contract, not just shape equality). It also
// holds the digest to the printed form: two parsed services have equal
// digests exactly when their printed sources minus the name line are
// equal, among the services of one input and against every seed.
//
// The corpus is seeded with every workload template in both its
// vulnerable and safe variant across every sink kind it supports, plus
// hand-picked grammar corners, so fuzzing starts from the exact service
// population the benchmark campaigns parse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"service X\nend\n",
		"service X\n  param a\n  sink sql a\nend\n",
		"service X\n  param a\n  if not matches(a, digits)\n    reject\n  end\n  sink html escape_html(a)\nend\n",
		"service X\n  param a\n  repeat 3\n    sink cmd a\n  end\nend\n",
		"service X\n  param a\n  sink path silent sanitize_path(a)\nend\n",
		"# comment\nservice Y\n  var v\n  v = concat(\"x\\\"y\", \"z\")\n  sink xpath v\nend\n",
		"service X\n  param a\n  store \"k\" a\n  sink sql load(\"k\")\nend\n",
		"garbage",
		"service \"quoted\"",
		"service X\n  sink sql \"unterminated\nend\n",
	}
	for _, tpl := range workload.Templates() {
		for _, kind := range tpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				svc, _ := tpl.Build("seed", kind, vulnerable)
				seeds = append(seeds, svclang.Print(svc))
			}
		}
	}
	// seedBodies maps the body text of every parsed seed to its digest,
	// and seedTexts back.
	seedBodies, seedTexts := map[string]svclang.Digest{}, map[svclang.Digest]string{}
	for _, s := range seeds {
		f.Add(s)
		services, _ := svclang.Parse(s)
		for _, svc := range services {
			seedBodies[bodyText(svc)] = svc.Digest()
			seedTexts[svc.Digest()] = bodyText(svc)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		services, err := svclang.Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		bodies, texts := map[string]svclang.Digest{}, map[svclang.Digest]string{}
		for _, svc := range services {
			if err := svc.Validate(); err != nil {
				t.Fatalf("parsed service fails validation: %v", err)
			}
			text, d := bodyText(svc), svc.Digest()
			for _, known := range []struct {
				bodies map[string]svclang.Digest
				texts  map[svclang.Digest]string
			}{{seedBodies, seedTexts}, {bodies, texts}} {
				if kd, ok := known.bodies[text]; ok && kd != d {
					t.Fatalf("equal bodies, different digests:\n%s", text)
				}
				if kt, ok := known.texts[d]; ok && kt != text {
					t.Fatalf("one digest, different bodies:\n%s\n%s", kt, text)
				}
			}
			bodies[text], texts[d] = d, text
			renamed := *svc
			renamed.Name += "Copy"
			if renamed.Digest() != d {
				t.Fatalf("a rename changed the digest of\n%s", text)
			}
			printed := svclang.Print(svc)
			again, err := svclang.ParseOne(printed)
			if err != nil {
				t.Fatalf("printed form does not re-parse: %v\n%s", err, printed)
			}
			if !reflect.DeepEqual(svc, again) {
				t.Fatalf("parse→print→parse is not the identity\nfirst:  %#v\nsecond: %#v\nsource:\n%s", svc, again, printed)
			}
			// Execution must be total on valid services.
			req := svclang.Request{}
			for _, p := range svc.Params {
				req[p] = "' OR '1'='1"
			}
			if _, err := svclang.Execute(svc, req); err != nil {
				t.Fatalf("execution failed on valid service: %v", err)
			}
		}
	})
}

// bodyText is a service's printed source without its name line.
func bodyText(svc *svclang.Service) string {
	_, body, _ := strings.Cut(svclang.Print(svc), "\n")
	return body
}
