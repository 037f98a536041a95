package metrics

import (
	"errors"
	"math"
	"testing"
)

func TestMacroAverage(t *testing.T) {
	rec := MustByID(IDRecall)
	perClass := []Confusion{
		{TP: 8, FN: 2, TN: 10}, // recall 0.8
		{TP: 2, FN: 8, TN: 10}, // recall 0.2
	}
	res, err := MacroAverage(rec, perClass)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-0.5) > 1e-12 {
		t.Fatalf("macro recall = %g, want 0.5", res.Value)
	}
	if res.DefinedOn != 2 || res.TotalClasses != 2 {
		t.Fatalf("definedness bookkeeping wrong: %+v", res)
	}
}

func TestMacroAverageSkipsUndefined(t *testing.T) {
	rec := MustByID(IDRecall)
	perClass := []Confusion{
		{TP: 8, FN: 2}, // recall 0.8
		{TN: 10},       // recall undefined (no positives)
	}
	res, err := MacroAverage(rec, perClass)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0.8 || res.DefinedOn != 1 || res.TotalClasses != 2 {
		t.Fatalf("macro with undefined class = %+v", res)
	}
}

func TestMacroAverageAllUndefined(t *testing.T) {
	rec := MustByID(IDRecall)
	_, err := MacroAverage(rec, []Confusion{{TN: 5}, {TN: 3}})
	if err == nil || !IsUndefined(err) {
		t.Fatalf("expected UndefinedError, got %v", err)
	}
}

func TestMacroAveragePropagatesInvalidMatrix(t *testing.T) {
	rec := MustByID(IDRecall)
	if _, err := MacroAverage(rec, []Confusion{{TP: -1}}); err == nil || IsUndefined(err) {
		t.Fatalf("invalid matrix should be a hard error, got %v", err)
	}
}

func TestMacroAverageEmpty(t *testing.T) {
	if _, err := MacroAverage(MustByID(IDRecall), nil); !errors.Is(err, ErrNoClasses) {
		t.Fatal("empty macro-average should fail")
	}
}

func TestMicroVsMacroDivergence(t *testing.T) {
	// Micro is dominated by the large class; macro treats classes equally.
	rec := MustByID(IDRecall)
	perClass := []Confusion{
		{TP: 90, FN: 10}, // large class, recall 0.9
		{TP: 1, FN: 9},   // small class, recall 0.1
	}
	micro := perClass[0].Add(perClass[1])
	microVal, err := rec.Value(micro)
	if err != nil {
		t.Fatal(err)
	}
	macro, err := MacroAverage(rec, perClass)
	if err != nil {
		t.Fatal(err)
	}
	if !(microVal > 0.8 && macro.Value == 0.5) {
		t.Fatalf("micro=%g macro=%g; expected micro near 0.83 and macro 0.5", microVal, macro.Value)
	}
}
