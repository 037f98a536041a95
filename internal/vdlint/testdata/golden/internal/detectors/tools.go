// Package detectors exercises toolwired (an orphaned constructor),
// compiledexec (a raw interpreter call on the execution path) and
// casedigest (a re-derived digest and a per-pointer memo).
package detectors

import (
	"example.com/golden/internal/memo"
	"example.com/golden/internal/svclang"
	"example.com/golden/internal/workload"
)

type Tool interface{ Name() string }

func NewWired() Tool  { return nil }
func NewOrphan() Tool { return nil } // want `constructor NewOrphan returns a Tool but is never exercised`

func StandardSuite() []Tool { return []Tool{NewWired()} }

func probe(s *svclang.Service) {
	_, _ = svclang.Execute(s, nil) // want `calls svclang.Execute directly; execute through compile.Engine`
}

var _ = probe

// bodyKey re-derives what labelling stored on the case.
func bodyKey(cs workload.Case) svclang.Digest {
	return cs.Service.Digest() // want `package example.com/golden/internal/detectors calls svclang.Service.Digest; read the digest labelling stored on the case`
}

// perPointer is the memo casedigest exists to keep out; perBody, keyed
// by the case's digest, is the shape it asks for.
var (
	perPointer = memo.New[*svclang.Service, []int](0, nil) // want `package example.com/golden/internal/detectors builds a memo.Cache keyed by \*svclang.Service`
	perBody    = memo.New[svclang.Digest, []int](0, nil)
	digestOf   = (*svclang.Service).Digest // want `calls svclang.Service.Digest`
)

// caseKey reads the stored digest, through a function that shares the
// method's name.
func caseKey(cs workload.Case) svclang.Digest { return workload.Digest(cs) }

var _, _, _, _, _ = bodyKey, caseKey, perPointer, perBody, digestOf
