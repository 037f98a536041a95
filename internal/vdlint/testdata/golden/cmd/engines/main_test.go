package main

import (
	"testing"

	"example.com/golden/internal/svclang/compile"
)

// Tests are where the reference engine belongs: no finding here.
func TestReference(t *testing.T) {
	if compile.NewReferenceEngine() == compile.NewEngine() {
		t.Fatal("engines alias")
	}
}
