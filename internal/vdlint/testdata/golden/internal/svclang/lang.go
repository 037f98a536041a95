// Package svclang mirrors the repo's interpreter-side judge surface so
// the golden corpus can exercise judgesync and compiledexec exactly the
// way the real module wires them.
package svclang

type Service struct{}

// Digest is the content address casedigest keeps inside svclang and
// internal/workload.
type Digest [32]byte

func (s *Service) Digest() Digest { return Digest{} }

type Request map[string]string
type Result struct{}

// Execute's own call shows the defining package is exempt from the
// test-only rule.
func Execute(s *Service, r Request) (Result, error)          { return ExecuteInSession(s, r) }
func ExecuteInSession(s *Service, r Request) (Result, error) { return Result{}, nil }
func AnalyzeProbing(s *Service) error                        { return nil }
func AnalyzeProbingExhaustive(s *Service) error              { return nil }

type SinkKind int

const (
	SinkSQL SinkKind = iota + 1
	SinkXPath
	SinkHTML
)

type Builtin int

const (
	BuiltinConcat Builtin = iota + 1
	BuiltinTrim
	BuiltinUpper
)

type sinkJudge struct{ name string }
type builtinSpec struct{ mode int }

// sinkJudges deliberately drops SinkHTML so judgesync has a coverage
// gap to report.
var sinkJudges = [SinkHTML + 1]sinkJudge{ // want `judge table sinkJudges has no entry for SinkHTML`
	SinkSQL:   {name: "sql"},
	SinkXPath: {name: "xpath"},
}

var builtinSpecs = [BuiltinUpper + 1]builtinSpec{
	BuiltinConcat: {mode: 1},
	BuiltinTrim:   {mode: 2},
	BuiltinUpper:  {mode: 3},
}

var (
	_ = sinkJudges
	_ = builtinSpecs
)
