package detectors

import (
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

func TestNewCombinedValidation(t *testing.T) {
	a := NewSignatureSAST("a")
	b := NewSignatureSAST("b")
	if _, err := NewCombined("", Union, []Tool{a, b}); err == nil {
		t.Error("nameless combined accepted")
	}
	if _, err := NewCombined("c", CombineMode(9), []Tool{a, b}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewCombined("c", Union, []Tool{a}); err == nil {
		t.Error("single member accepted")
	}
	if _, err := NewCombined("c", Union, []Tool{a, nil}); err == nil {
		t.Error("nil member accepted")
	}
}

func TestCombineModeString(t *testing.T) {
	if Union.String() != "union" || Intersection.String() != "intersection" || Majority.String() != "majority" {
		t.Fatal("mode names wrong")
	}
	if CombineMode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

// combineFixture builds cases where the SAST and DAST members disagree:
// the silent-sink case is found only by SAST; the validated-splice safe
// case is flagged only by the non-validator-aware SAST.
func combineFixture(t *testing.T) (sast, dast, uni, inter Tool, silentVuln, validatedSafe workload.Case) {
	t.Helper()
	sast = aggressive() // flags validated-safe (FP), finds silent sinks
	dast = deepPT()     // misses silent sinks, never false-alarms
	var err error
	uni, err = NewCombined("uni", Union, []Tool{sast, dast})
	if err != nil {
		t.Fatal(err)
	}
	inter, err = NewCombined("inter", Intersection, []Tool{sast, dast})
	if err != nil {
		t.Fatal(err)
	}
	silentVuln = buildCase(t, "silent-sink", svclang.SinkSQL, true)
	validatedSafe = buildCase(t, "validated-splice", svclang.SinkSQL, false)
	return sast, dast, uni, inter, silentVuln, validatedSafe
}

func TestCombinedUnionRaisesRecall(t *testing.T) {
	_, dast, uni, _, silentVuln, _ := combineFixture(t)
	if reportsSink(t, dast, silentVuln, 0) {
		t.Fatal("precondition: DAST should miss the silent sink")
	}
	if !reportsSink(t, uni, silentVuln, 0) {
		t.Fatal("union should inherit the SAST detection")
	}
}

func TestCombinedUnionInheritsFalseAlarms(t *testing.T) {
	sast, _, uni, _, _, validatedSafe := combineFixture(t)
	if !reportsSink(t, sast, validatedSafe, 0) {
		t.Fatal("precondition: aggressive SAST should flag validated code")
	}
	if !reportsSink(t, uni, validatedSafe, 0) {
		t.Fatal("union should inherit the SAST false alarm")
	}
}

func TestCombinedIntersectionRaisesPrecision(t *testing.T) {
	_, _, _, inter, silentVuln, validatedSafe := combineFixture(t)
	if reportsSink(t, inter, validatedSafe, 0) {
		t.Fatal("intersection should drop the single-tool false alarm")
	}
	// The price: single-tool detections are dropped too.
	if reportsSink(t, inter, silentVuln, 0) {
		t.Fatal("intersection should drop the SAST-only detection")
	}
	// Both members find the plain direct splice: intersection keeps it.
	direct := buildCase(t, "direct-splice", svclang.SinkSQL, true)
	if !reportsSink(t, inter, direct, 0) {
		t.Fatal("intersection should keep commonly found vulnerabilities")
	}
}

func TestCombinedMajority(t *testing.T) {
	// Three members: two flag validated-safe (aggressive + signature), one
	// does not (DAST). Majority (2 of 3) keeps it; with two DAST members
	// it would not.
	maj, err := NewCombined("maj", Majority, []Tool{aggressive(), NewSignatureSAST("sig"), deepPT()})
	if err != nil {
		t.Fatal(err)
	}
	validatedSafe := buildCase(t, "validated-splice", svclang.SinkSQL, false)
	if !reportsSink(t, maj, validatedSafe, 0) {
		t.Fatal("2-of-3 vote should flag")
	}
	maj2, err := NewCombined("maj2", Majority, []Tool{aggressive(), deepPT(), fastPT()})
	if err != nil {
		t.Fatal(err)
	}
	if reportsSink(t, maj2, validatedSafe, 0) {
		t.Fatal("1-of-3 vote should not flag")
	}
}

func TestCombinedClass(t *testing.T) {
	sastOnly, err := NewCombined("s", Union, []Tool{aggressive(), lite()})
	if err != nil {
		t.Fatal(err)
	}
	if sastOnly.Class() != ClassSAST {
		t.Fatalf("homogeneous combination class = %v", sastOnly.Class())
	}
	mixed, err := NewCombined("m", Union, []Tool{aggressive(), deepPT()})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Class() != ClassSimulated {
		t.Fatalf("mixed combination class = %v", mixed.Class())
	}
}

func TestCombinedPropagatesMemberErrors(t *testing.T) {
	uni, err := NewCombined("u", Union, []Tool{aggressive(), deepPT()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uni.Analyze(workload.Case{}, stats.NewRNG(1)); err == nil {
		t.Fatal("nil service should propagate member error")
	}
}
