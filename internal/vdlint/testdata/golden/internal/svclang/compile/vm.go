// Package compile mirrors the repo's VM-side surface. Since the judge
// logic moved into package svclang's shared tables (sinkJudges,
// builtinSpecs), this package carries no judge code of its own — it
// exists so the golden corpus keeps the real module's package shape,
// including the production and the test-only reference constructors.
package compile

import (
	"example.com/golden/internal/memo"
	"example.com/golden/internal/svclang"
)

type Reference interface {
	Analyze(s *svclang.Service) error
}

// Engine's program table may key by pointer and digest services: the
// svclang packages are exempt from casedigest.
type Engine struct {
	ref   Reference
	progs *memo.Cache[*svclang.Service, int]
}

func NewEngine() *Engine { return &Engine{progs: memo.New[*svclang.Service, int](0, nil)} }

func (e *Engine) Program(s *svclang.Service) svclang.Digest { return s.Digest() }

func NewReferenceEngine(ref Reference) *Engine { return &Engine{ref: ref} }

// defaultEngine shows the package's own code is exempt from the
// test-only rule.
var defaultEngine = NewReferenceEngine(nil)

func (e *Engine) Analyze(s *svclang.Service) error {
	if e.ref != nil {
		return e.ref.Analyze(s)
	}
	return svclang.AnalyzeProbing(s)
}
