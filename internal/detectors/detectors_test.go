package detectors

import (
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
	"github.com/dsn2015/vdbench/internal/workload"
)

// buildCase instantiates a named template as a labelled workload case.
func buildCase(t *testing.T, template string, kind svclang.SinkKind, vulnerable bool) workload.Case {
	t.Helper()
	tpl, ok := workload.TemplateByName(template)
	if !ok {
		t.Fatalf("unknown template %q", template)
	}
	svc, _ := tpl.Build("case", kind, vulnerable)
	truths, err := svclang.AnalyzeProbing(svc, reference.Probe)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return workload.Case{Service: svc, Template: template, Difficulty: tpl.Difficulty, Truths: truths}
}

// reportsSink reports whether the tool flags the given sink of the case.
func reportsSink(t *testing.T, tool Tool, cs workload.Case, sinkID int) bool {
	t.Helper()
	reports, err := tool.Analyze(cs, stats.NewRNG(1))
	if err != nil {
		t.Fatalf("%s: %v", tool.Name(), err)
	}
	for _, r := range reports {
		if r.SinkID == sinkID {
			if r.Service != cs.Service.Name {
				t.Fatalf("%s: report names service %q, case is %q", tool.Name(), r.Service, cs.Service.Name)
			}
			if r.Confidence <= 0 || r.Confidence > 1 {
				t.Fatalf("%s: confidence %g out of (0,1]", tool.Name(), r.Confidence)
			}
			return true
		}
	}
	return false
}

func precise() Tool {
	return NewTaintSAST(TaintSASTConfig{
		Name: "precise", SinkAware: true, DiagonalAdequacy: true,
		ValidatorAware: true, PruneDeadBranches: true, TrackLoops: true,
	})
}

func aggressive() Tool {
	return NewTaintSAST(TaintSASTConfig{
		Name: "aggressive", SinkAware: true, DiagonalAdequacy: true, TrackLoops: true,
	})
}

func lite() Tool {
	return NewTaintSAST(TaintSASTConfig{Name: "lite", SinkAware: false})
}

func trueMatrix() Tool {
	return NewTaintSAST(TaintSASTConfig{
		Name: "truematrix", SinkAware: true,
		ValidatorAware: true, PruneDeadBranches: true, TrackLoops: true,
	})
}

func deepPT() Tool {
	return NewPentester(PentesterConfig{Name: "deep", ExploreInputs: true})
}

func fastPT() Tool {
	return NewPentester(PentesterConfig{Name: "fast", PayloadBudget: 1})
}

func TestTaintSASTDirectSplice(t *testing.T) {
	for _, kind := range svclang.AllSinkKinds() {
		vuln := buildCase(t, "direct-splice", kind, true)
		safe := buildCase(t, "direct-splice", kind, false)
		for _, tool := range []Tool{precise(), aggressive(), lite(), trueMatrix()} {
			if !reportsSink(t, tool, vuln, 0) {
				t.Errorf("%s missed direct %s splice", tool.Name(), kind)
			}
			if reportsSink(t, tool, safe, 0) {
				t.Errorf("%s flagged sanitized %s splice", tool.Name(), kind)
			}
		}
	}
}

func TestTaintSASTWrongSanitizer(t *testing.T) {
	vuln := buildCase(t, "wrong-sanitizer", svclang.SinkSQL, true)
	// Sink-aware tools catch the inadequate sanitizer.
	if !reportsSink(t, precise(), vuln, 0) {
		t.Error("sink-aware tool missed wrong sanitizer")
	}
	// The non-sink-aware tool trusts any sanitizer: false negative.
	if reportsSink(t, lite(), vuln, 0) {
		t.Error("non-sink-aware tool should trust the (wrong) sanitizer")
	}
}

func TestTaintSASTAccidentalSanitizer(t *testing.T) {
	safe := buildCase(t, "accidental-sanitizer", svclang.SinkSQL, false)
	if safe.Truths[0].Vulnerable {
		t.Fatal("precondition: accidental-sanitizer safe variant must be safe")
	}
	// Diagonal-matrix tool reports it: false positive by design.
	if !reportsSink(t, precise(), safe, 0) {
		t.Error("diagonal-matrix tool should flag accidentally-safe code")
	}
	// True-matrix tool knows better.
	if reportsSink(t, trueMatrix(), safe, 0) {
		t.Error("true-matrix tool should accept accidentally-safe code")
	}
}

func TestTaintSASTValidator(t *testing.T) {
	safe := buildCase(t, "validated-splice", svclang.SinkSQL, false)
	vuln := buildCase(t, "validated-splice", svclang.SinkSQL, true)
	// Validator-aware: no false positive on correct validation, and the
	// wrong-parameter bug is still caught.
	if reportsSink(t, precise(), safe, 0) {
		t.Error("validator-aware tool flagged validated input")
	}
	if !reportsSink(t, precise(), vuln, 0) {
		t.Error("validator-aware tool missed wrong-parameter validation bug")
	}
	// Non-aware tool reports both: the safe case is its false positive.
	if !reportsSink(t, aggressive(), safe, 0) {
		t.Error("non-validator-aware tool should flag validated input")
	}
}

func TestTaintSASTDeadBranch(t *testing.T) {
	safe := buildCase(t, "dead-sink", svclang.SinkCmd, false)
	if !reportsSink(t, aggressive(), safe, 0) {
		t.Error("non-pruning tool should flag the dead sink")
	}
	if reportsSink(t, precise(), safe, 0) {
		t.Error("pruning tool should skip the dead sink")
	}
}

func TestTaintSASTLoops(t *testing.T) {
	vuln := buildCase(t, "loop-flow", svclang.SinkHTML, true)
	if !reportsSink(t, precise(), vuln, 0) {
		t.Error("loop-tracking tool missed loop-carried taint")
	}
	if reportsSink(t, lite(), vuln, 0) {
		t.Error("non-loop tool should not see inside the loop")
	}
}

func TestTaintSASTLateValidation(t *testing.T) {
	vuln := buildCase(t, "late-validation", svclang.SinkSQL, true)
	safe := buildCase(t, "late-validation", svclang.SinkSQL, false)
	// Flow-sensitive analysis distinguishes order.
	if !reportsSink(t, precise(), vuln, 0) {
		t.Error("flow-sensitive tool missed sink-before-validation")
	}
	if reportsSink(t, precise(), safe, 0) {
		t.Error("flow-sensitive tool flagged validation-before-sink")
	}
}

func TestSignatureSASTProfile(t *testing.T) {
	sig := NewSignatureSAST("sig")
	// Catches direct splices.
	if !reportsSink(t, sig, buildCase(t, "direct-splice", svclang.SinkSQL, true), 0) {
		t.Error("signature tool missed direct splice")
	}
	// Trusts any sanitizer: misses wrong-sanitizer flows.
	if reportsSink(t, sig, buildCase(t, "wrong-sanitizer", svclang.SinkSQL, true), 0) {
		t.Error("signature tool should trust the wrong sanitizer (false negative)")
	}
	// Ignores validators: false positive on validated code.
	if !reportsSink(t, sig, buildCase(t, "validated-splice", svclang.SinkSQL, false), 0) {
		t.Error("signature tool should flag validated code")
	}
	// Ignores reachability: false positive on dead sink.
	if !reportsSink(t, sig, buildCase(t, "dead-sink", svclang.SinkSQL, false), 0) {
		t.Error("signature tool should flag the dead sink")
	}
	// Order-insensitive: flags the safe late-validation variant too.
	if !reportsSink(t, sig, buildCase(t, "late-validation", svclang.SinkSQL, false), 0) {
		t.Error("signature tool should flag validation-before-sink (order blind)")
	}
	// Sees through variable hops (flow-insensitive closure).
	if !reportsSink(t, sig, buildCase(t, "indirect-flow", svclang.SinkSQL, true), 0) {
		t.Error("signature tool missed indirect flow")
	}
}

func TestPentesterDirectSplice(t *testing.T) {
	for _, kind := range svclang.AllSinkKinds() {
		vuln := buildCase(t, "direct-splice", kind, true)
		safe := buildCase(t, "direct-splice", kind, false)
		if !reportsSink(t, deepPT(), vuln, 0) {
			t.Errorf("pentester missed direct %s splice", kind)
		}
		if reportsSink(t, deepPT(), safe, 0) {
			t.Errorf("pentester false-alarmed on sanitized %s splice", kind)
		}
	}
}

func TestPentesterGuardedSink(t *testing.T) {
	vuln := buildCase(t, "guarded-splice", svclang.SinkSQL, true)
	// Exploring tester reaches the guard (mode=alpha is in the benign
	// dictionary).
	if !reportsSink(t, deepPT(), vuln, 0) {
		t.Error("exploring pentester missed guarded sink")
	}
	// Non-exploring tester never satisfies the guard: false negative.
	if reportsSink(t, fastPT(), vuln, 0) {
		t.Error("non-exploring pentester should miss the guarded sink")
	}
}

func TestPentesterSilentSink(t *testing.T) {
	vuln := buildCase(t, "silent-sink", svclang.SinkSQL, true)
	if reportsSink(t, deepPT(), vuln, 0) {
		t.Error("error-based pentester cannot see silent sinks")
	}
	// Static analysis is unaffected by observability.
	if !reportsSink(t, precise(), vuln, 0) {
		t.Error("static tool should flag the silent sink")
	}
}

func TestPentesterValidatedInput(t *testing.T) {
	safe := buildCase(t, "validated-splice", svclang.SinkSQL, false)
	if reportsSink(t, deepPT(), safe, 0) {
		t.Error("pentester false-alarmed on validated input (rejections observable)")
	}
	vuln := buildCase(t, "validated-splice", svclang.SinkSQL, true)
	if !reportsSink(t, deepPT(), vuln, 0) {
		t.Error("pentester missed wrong-parameter validation bug")
	}
}

func TestPentesterDeadSink(t *testing.T) {
	safe := buildCase(t, "dead-sink", svclang.SinkSQL, false)
	if reportsSink(t, deepPT(), safe, 0) {
		t.Error("pentester cannot reach dead code; no report expected")
	}
}

func TestPentesterNeverFalseAlarms(t *testing.T) {
	// Differential confirmation: across the whole template library's safe
	// variants, the deep pentester must stay silent.
	for _, tpl := range workload.Templates() {
		for _, kind := range tpl.Kinds {
			cs := buildCase(t, tpl.Name, kind, false)
			reports, err := deepPT().Analyze(cs, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				for _, tr := range cs.Truths {
					if tr.SinkID == r.SinkID && !tr.Vulnerable {
						t.Errorf("pentester false positive on %s/%s sink %d", tpl.Name, kind, r.SinkID)
					}
				}
			}
		}
	}
}

func TestParametricRates(t *testing.T) {
	tool, err := NewParametric(ParametricConfig{Name: "sim", DefaultTPR: 0.8, FPR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.Generate(workload.Config{Services: 400, TargetPrevalence: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	var tp, fnCount, fp, tn int
	for _, cs := range corpus.Cases {
		reports, err := tool.Analyze(cs, rng)
		if err != nil {
			t.Fatal(err)
		}
		flagged := map[int]bool{}
		for _, r := range reports {
			flagged[r.SinkID] = true
		}
		for _, tr := range cs.Truths {
			switch {
			case tr.Vulnerable && flagged[tr.SinkID]:
				tp++
			case tr.Vulnerable:
				fnCount++
			case flagged[tr.SinkID]:
				fp++
			default:
				tn++
			}
		}
	}
	gotTPR := float64(tp) / float64(tp+fnCount)
	gotFPR := float64(fp) / float64(fp+tn)
	if gotTPR < 0.72 || gotTPR > 0.88 {
		t.Errorf("parametric TPR = %g, want ~0.8", gotTPR)
	}
	if gotFPR < 0.05 || gotFPR > 0.16 {
		t.Errorf("parametric FPR = %g, want ~0.1", gotFPR)
	}
}

func TestParametricValidation(t *testing.T) {
	if _, err := NewParametric(ParametricConfig{Name: "", DefaultTPR: 0.5}); err == nil {
		t.Error("nameless tool accepted")
	}
	if _, err := NewParametric(ParametricConfig{Name: "x", DefaultTPR: 1.5}); err == nil {
		t.Error("TPR > 1 accepted")
	}
	if _, err := NewParametric(ParametricConfig{Name: "x", DefaultTPR: 0.5, FPR: -0.1}); err == nil {
		t.Error("negative FPR accepted")
	}
	if _, err := NewParametric(ParametricConfig{
		Name: "x", TPR: map[workload.Difficulty]float64{workload.Easy: 2},
	}); err == nil {
		t.Error("per-difficulty TPR > 1 accepted")
	}
}

func TestParametricNeedsRNG(t *testing.T) {
	tool, err := NewParametric(ParametricConfig{Name: "sim", DefaultTPR: 0.5, FPR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cs := buildCase(t, "direct-splice", svclang.SinkSQL, true)
	if _, err := tool.Analyze(cs, nil); err == nil {
		t.Fatal("nil RNG accepted by simulated tool")
	}
}

func TestToolsRejectNilService(t *testing.T) {
	for _, tool := range []Tool{precise(), NewSignatureSAST("s"), deepPT()} {
		if _, err := tool.Analyze(workload.Case{}, stats.NewRNG(1)); err == nil {
			t.Errorf("%s accepted a nil service", tool.Name())
		}
	}
}

func TestStandardSuite(t *testing.T) {
	tools, err := StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(tools) != 9 {
		t.Fatalf("suite has %d tools, want 9", len(tools))
	}
	names := map[string]bool{}
	classes := map[Class]int{}
	for _, tool := range tools {
		if names[tool.Name()] {
			t.Fatalf("duplicate tool name %s", tool.Name())
		}
		names[tool.Name()] = true
		classes[tool.Class()]++
	}
	if classes[ClassSAST] != 6 || classes[ClassDAST] != 2 || classes[ClassSimulated] != 1 {
		t.Fatalf("class mix = %v", classes)
	}
}

func TestToolDeterminism(t *testing.T) {
	// Real tools must be deterministic regardless of the RNG.
	cs := buildCase(t, "double-param", svclang.SinkCmd, true)
	for _, tool := range []Tool{precise(), aggressive(), lite(), NewSignatureSAST("s"), deepPT(), fastPT()} {
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
	}
}

func TestClassString(t *testing.T) {
	if ClassSAST.String() != "SAST" || ClassDAST.String() != "DAST" || ClassSimulated.String() != "simulated" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "unknown" {
		t.Fatal("unknown class should render as unknown")
	}
}

func TestStoredFlowToolBehaviour(t *testing.T) {
	storeAware := NewTaintSAST(TaintSASTConfig{
		Name: "store-aware", SinkAware: true, DiagonalAdequacy: true,
		ValidatorAware: true, PruneDeadBranches: true, TrackLoops: true, TrackStores: true,
	})
	vuln := buildCase(t, "stored-splice", svclang.SinkHTML, true)
	safe := buildCase(t, "stored-splice", svclang.SinkHTML, false)
	if !vuln.Truths[0].Vulnerable || safe.Truths[0].Vulnerable {
		t.Fatal("precondition: stored-splice labels wrong")
	}
	// Store-tracking SAST finds the second-order flow; store-blind SAST
	// misses it.
	if !reportsSink(t, storeAware, vuln, 0) {
		t.Error("store-tracking SAST missed the stored flow")
	}
	if reportsSink(t, storeAware, safe, 0) {
		t.Error("store-tracking SAST flagged the sanitized stored flow")
	}
	if reportsSink(t, precise(), vuln, 0) {
		t.Error("store-blind SAST should miss the stored flow")
	}
	// The signature tool's flow-insensitive closure covers stores.
	if !reportsSink(t, NewSignatureSAST("sig"), vuln, 0) {
		t.Error("signature tool missed the stored flow")
	}
	// Stateless differential testing is blind to second-order flows: the
	// probe's own payload never reflects into the same response.
	if reportsSink(t, deepPT(), vuln, 0) {
		t.Error("stateless pentester cannot see second-order flows")
	}
}

func TestStatefulPentesterFindsStoredFlow(t *testing.T) {
	stateful := NewPentester(PentesterConfig{Name: "pt-stateful", ExploreInputs: true, Stateful: true})
	vuln := buildCase(t, "stored-splice", svclang.SinkHTML, true)
	safe := buildCase(t, "stored-splice", svclang.SinkHTML, false)
	if !reportsSink(t, stateful, vuln, 0) {
		t.Error("stateful pentester should stumble into the stored flow")
	}
	if reportsSink(t, stateful, safe, 0) {
		t.Error("stateful pentester false-alarmed on the sanitized stored flow")
	}
	// Statefulness must not change behaviour on stateless services.
	for _, tpl := range []string{"direct-splice", "validated-splice", "dead-sink"} {
		for _, vulnerable := range []bool{false, true} {
			cs := buildCase(t, tpl, svclang.SinkSQL, vulnerable)
			a := reportsSink(t, stateful, cs, 0)
			b := reportsSink(t, deepPT(), cs, 0)
			if a != b {
				t.Errorf("%s vulnerable=%v: stateful (%v) and stateless (%v) disagree on a stateless service",
					tpl, vulnerable, a, b)
			}
		}
	}
}

func TestStatefulPentesterNoFalseAlarmsOnSafeTemplates(t *testing.T) {
	stateful := NewPentester(PentesterConfig{Name: "pt-stateful", ExploreInputs: true, Stateful: true})
	for _, tpl := range workload.Templates() {
		for _, kind := range tpl.Kinds {
			cs := buildCase(t, tpl.Name, kind, false)
			reports, err := stateful.Analyze(cs, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				for _, tr := range cs.Truths {
					if tr.SinkID == r.SinkID && !tr.Vulnerable {
						t.Errorf("stateful pentester FP on %s/%s sink %d", tpl.Name, kind, r.SinkID)
					}
				}
			}
		}
	}
}
