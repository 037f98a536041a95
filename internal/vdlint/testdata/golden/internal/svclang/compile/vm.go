// Package compile mirrors the repo's VM-side surface. Since the judge
// logic moved into package svclang's shared tables (sinkJudges,
// builtinSpecs), this package carries no judge code of its own — it
// exists so the golden corpus keeps the real module's package shape,
// including the production and the test-only reference constructors.
package compile

import "example.com/golden/internal/svclang"

type Engine struct{ reference bool }

func NewEngine() *Engine { return &Engine{} }

func NewReferenceEngine() *Engine { return &Engine{reference: true} }

// defaultEngine shows the package's own code is exempt from the
// test-only rule.
var defaultEngine = NewReferenceEngine()

func (e *Engine) Analyze(s *svclang.Service) error { return svclang.Analyze(s) }
