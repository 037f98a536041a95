// Package reference is the benchmark's reference implementation of
// svclang: the tree-walking interpreter with the exhaustive, unpruned
// oracle search, which the bytecode VM and the influence-guided search
// are differentially locked to. Only tests may import it; vdlint's
// compiledexec analyzer keeps it, and the interpreter, out of every
// production binary.
package reference

import (
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// Probe runs one oracle probe on the interpreter, judging each sink
// event with the shared structural-taint table.
func Probe(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, obs svclang.ProbeObserver) error {
	res, err := svclang.ExecuteInSession(svc, req, store)
	if err != nil {
		return err
	}
	for _, ev := range res.Events {
		obs(ev.SinkID, ev.Kind, svclang.StructuralTaint(ev.Kind, ev.Value))
	}
	return nil
}

// NewEngine returns an engine that executes on the interpreter and
// derives ground truth with the exhaustive search over Probe.
func NewEngine() *compile.Engine { return compile.NewReferenceEngine(backend{}) }

type backend struct{}

func (backend) ExecuteInSession(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore) (svclang.Result, error) {
	return svclang.ExecuteInSession(svc, req, store)
}

func (backend) Analyze(svc *svclang.Service) ([]svclang.GroundTruth, error) {
	return svclang.AnalyzeProbingExhaustive(svc, Probe)
}
