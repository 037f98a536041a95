// Package workload labels services and is where a case's digest is
// taken, so casedigest exempts it.
package workload

import (
	"example.com/golden/internal/memo"
	"example.com/golden/internal/svclang"
)

type Case struct {
	Service *svclang.Service
	digest  svclang.Digest
}

func NewCase(s *svclang.Service) Case { return Case{Service: s, digest: s.Digest()} }

func (c Case) Digest() svclang.Digest { return c.digest }

// Digest is a function, not svclang.Service's method: calling it is
// fine anywhere.
func Digest(c Case) svclang.Digest { return c.digest }

var labelled = memo.New[*svclang.Service, Case](0, nil)

var _ = labelled
