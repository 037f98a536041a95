package detectors

import (
	"fmt"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// knobConfig expands a 6-bit mask into one of the 64 TaintSASTConfig knob
// combinations shared by the reference walker and the CFG engine.
func knobConfig(mask int) TaintSASTConfig {
	return TaintSASTConfig{
		Name:              fmt.Sprintf("knobs-%02d", mask),
		SinkAware:         mask&1 != 0,
		DiagonalAdequacy:  mask&2 != 0,
		ValidatorAware:    mask&4 != 0,
		PruneDeadBranches: mask&8 != 0,
		TrackLoops:        mask&16 != 0,
		TrackStores:       mask&32 != 0,
	}
}

// templateCases instantiates every template × supported kind × variant.
func templateCases(t *testing.T) []workload.Case {
	t.Helper()
	var out []workload.Case
	for _, tpl := range workload.Templates() {
		for _, kind := range tpl.Kinds {
			for _, vulnerable := range []bool{false, true} {
				out = append(out, buildCase(t, tpl.Name, kind, vulnerable))
			}
		}
	}
	return out
}

// generatedCases draws corpora with the differential-test seeds.
func generatedCases(t *testing.T) []workload.Case {
	t.Helper()
	var out []workload.Case
	for _, seed := range []uint64{1, 7, 42} {
		corpus, err := workload.Generate(workload.Config{
			Services:         60,
			TargetPrevalence: 0.4,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpus.Cases...)
	}
	return out
}

func analyze(t *testing.T, tool Tool, cs workload.Case) []Report {
	t.Helper()
	reports, err := tool.Analyze(cs, stats.NewRNG(1))
	if err != nil {
		t.Fatalf("%s on %s: %v", tool.Name(), cs.Service.Name, err)
	}
	return reports
}

// TestDataflowMatchesWalker is the engine's differential test: at every
// one of the 64 shared knob combinations, the CFG engine and the
// reference AST walker (walker_test.go) must produce identical report sets — same sinks, same kinds,
// same confidences — on every template instantiation and on generated
// corpora at seeds 1, 7 and 42. Divergence is only permitted under the
// PathSensitive knob, covered by the next test.
func TestDataflowMatchesWalker(t *testing.T) {
	cases := append(templateCases(t), generatedCases(t)...)
	for mask := 0; mask < 64; mask++ {
		cfg := knobConfig(mask)
		walker := newWalkerSAST(cfg)
		engine := NewTaintSAST(cfg)
		for _, cs := range cases {
			w := analyze(t, walker, cs)
			e := analyze(t, engine, cs)
			if len(w) != len(e) {
				t.Fatalf("mask %06b %s/%s: walker %d reports, engine %d\nwalker: %v\nengine: %v",
					mask, cs.Template, cs.Service.Name, len(w), len(e), w, e)
			}
			for i := range w {
				if w[i] != e[i] {
					t.Fatalf("mask %06b %s/%s report %d: walker %+v, engine %+v",
						mask, cs.Template, cs.Service.Name, i, w[i], e[i])
				}
			}
		}
	}
}

// TestPathSensitiveDivergences checks the PathSensitive contract: turning
// the knob on may only remove reports relative to the walker (refinement
// never invents taint), every removed report must be a sink the oracle
// calls safe (the engine is right, the walker wrong), and across the
// corpus such divergences actually occur.
func TestPathSensitiveDivergences(t *testing.T) {
	cases := append(templateCases(t), generatedCases(t)...)
	divergences := 0
	for mask := 0; mask < 64; mask++ {
		cfg := knobConfig(mask)
		walker := newWalkerSAST(cfg)
		cfg.PathSensitive = true
		engine := NewTaintSAST(cfg)
		for _, cs := range cases {
			w := analyze(t, walker, cs)
			e := analyze(t, engine, cs)
			walkerBy := map[int]Report{}
			for _, r := range w {
				walkerBy[r.SinkID] = r
			}
			truthBy := map[int]bool{}
			for _, tr := range cs.Truths {
				truthBy[tr.SinkID] = tr.Vulnerable
			}
			for _, r := range e {
				wr, ok := walkerBy[r.SinkID]
				if !ok {
					t.Fatalf("mask %06b %s/%s: engine invented report for sink %d",
						mask, cs.Template, cs.Service.Name, r.SinkID)
				}
				if wr != r {
					t.Fatalf("mask %06b %s/%s sink %d: walker %+v, engine %+v",
						mask, cs.Template, cs.Service.Name, r.SinkID, wr, r)
				}
				delete(walkerBy, r.SinkID)
			}
			// Whatever remains was reported by the walker only: the
			// refinement suppressed it, and the oracle must agree it is
			// not vulnerable.
			for id := range walkerBy {
				divergences++
				if truthBy[id] {
					t.Fatalf("mask %06b %s/%s: PathSensitive suppressed a genuinely vulnerable sink %d",
						mask, cs.Template, cs.Service.Name, id)
				}
			}
		}
	}
	if divergences == 0 {
		t.Fatal("PathSensitive never diverged from the walker; the knob is inert")
	}
}

func dfPrecise() Tool {
	return NewTaintSAST(TaintSASTConfig{
		Name: "df-precise", SinkAware: true, DiagonalAdequacy: true,
		ValidatorAware: true, PruneDeadBranches: true, TrackLoops: true, TrackStores: true,
		PathSensitive: true,
	})
}

func dfStateless() Tool {
	return NewTaintSAST(TaintSASTConfig{
		Name: "df-stateless", SinkAware: true, DiagonalAdequacy: true,
		ValidatorAware: true, PruneDeadBranches: true, TrackLoops: true,
		PathSensitive: true,
	})
}

// TestDataflowValidatedBranch pins the mechanism that separates the
// path-sensitive df-* tools from the path-insensitive ts-* tools in the
// standard suite: a sink inside the validated arm of a branch. A
// path-insensitive analysis joins both arms and false-alarms on the safe
// variant; path-sensitive edge refinement clears it, while the
// wrong-parameter bug is still caught.
func TestDataflowValidatedBranch(t *testing.T) {
	for _, kind := range svclang.AllSinkKinds() {
		safe := buildCase(t, "validated-branch", kind, false)
		vuln := buildCase(t, "validated-branch", kind, true)
		if safe.Truths[0].Vulnerable || !vuln.Truths[0].Vulnerable {
			t.Fatal("precondition: validated-branch labels wrong")
		}
		if reportsSink(t, dfPrecise(), safe, 0) {
			t.Errorf("%s: path-sensitive engine flagged the validated branch", kind)
		}
		if !reportsSink(t, dfPrecise(), vuln, 0) {
			t.Errorf("%s: path-sensitive engine missed the wrong-parameter bug", kind)
		}
		// The same knob settings without path sensitivity cannot express
		// the refinement: the safe variant is their false positive.
		if !reportsSink(t, precise(), safe, 0) {
			t.Errorf("%s: path-insensitive engine unexpectedly cleared the validated branch", kind)
		}
		// Neither tool touches the constant fallback sink.
		if reportsSink(t, dfPrecise(), safe, 1) || reportsSink(t, dfPrecise(), vuln, 1) {
			t.Errorf("%s: engine flagged the constant fallback sink", kind)
		}
	}
}

// TestDataflowStorePasses mirrors TestStoredFlowToolBehaviour for the CFG
// engine: the store-tracking configuration finds second-order flows via
// the two-pass store image, the stateless one is blind to them.
func TestDataflowStorePasses(t *testing.T) {
	vuln := buildCase(t, "stored-splice", svclang.SinkHTML, true)
	safe := buildCase(t, "stored-splice", svclang.SinkHTML, false)
	if !reportsSink(t, dfPrecise(), vuln, 0) {
		t.Error("store-tracking engine missed the stored flow")
	}
	if reportsSink(t, dfPrecise(), safe, 0) {
		t.Error("store-tracking engine flagged the sanitized stored flow")
	}
	if reportsSink(t, dfStateless(), vuln, 0) {
		t.Error("stateless engine should miss the stored flow")
	}
}

func TestDataflowDeterministicAndNilSafe(t *testing.T) {
	cs := buildCase(t, "double-param", svclang.SinkCmd, true)
	for _, tool := range []Tool{dfPrecise(), dfStateless()} {
		r1, err1 := tool.Analyze(cs, stats.NewRNG(1))
		r2, err2 := tool.Analyze(cs, stats.NewRNG(999))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%s nondeterministic", tool.Name())
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("%s nondeterministic at %d", tool.Name(), i)
			}
		}
		if _, err := tool.Analyze(workload.Case{}, stats.NewRNG(1)); err == nil {
			t.Errorf("%s accepted a nil service", tool.Name())
		}
	}
}
