package main

import (
	"testing"

	"example.com/golden/internal/svclang"
	"example.com/golden/internal/svclang/compile"
	"example.com/golden/internal/svclang/reference"
)

// Tests are where the reference implementation belongs: no finding here.
func TestReference(t *testing.T) {
	if reference.NewEngine() == compile.NewEngine() || compile.NewReferenceEngine(nil) == nil {
		t.Fatal("engines alias")
	}
	_, _ = svclang.Execute(nil, nil)
	if (&svclang.Service{}).Digest() != (svclang.Digest{}) {
		t.Fatal("tests may digest services")
	}
}
