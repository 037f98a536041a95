// Package reference mirrors the repo's test-only reference
// implementation: the one package outside svclang whose non-test code
// may run the interpreter and the exhaustive search and build a
// reference engine.
package reference

import (
	"example.com/golden/internal/svclang"
	"example.com/golden/internal/svclang/compile"
)

type backend struct{}

func (backend) Analyze(s *svclang.Service) error {
	if _, err := svclang.ExecuteInSession(s, nil); err != nil {
		return err
	}
	return svclang.AnalyzeProbingExhaustive(s)
}

func NewEngine() *compile.Engine { return compile.NewReferenceEngine(backend{}) }
