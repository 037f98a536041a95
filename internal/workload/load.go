package workload

import (
	"fmt"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// FromSources builds a labelled corpus from externally authored service
// sources (the textual mini-language format). Ground truth is computed by
// the exhaustive oracle, exactly as for generated corpora, so externally
// supplied workloads get the same label guarantees.
//
// Cases loaded this way carry template "external" and difficulty Medium
// (difficulty buckets are a property of the generator's templates; foreign
// code has no bucket). Services must stay within the oracle's
// exhaustiveness limit (at most 3 parameters).
func FromSources(src string) (*Corpus, error) {
	services, err := svclang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("workload: parse sources: %w", err)
	}
	return FromServices(services)
}

// FromServices builds a labelled corpus from already-parsed services. See
// FromSources for the labelling guarantees.
func FromServices(services []*svclang.Service) (*Corpus, error) {
	if len(services) == 0 {
		return nil, fmt.Errorf("workload: no services")
	}
	corpus := &Corpus{}
	seen := make(map[string]bool, len(services))
	eng := compile.NewEngine()
	for _, svc := range services {
		if svc == nil {
			return nil, fmt.Errorf("workload: nil service")
		}
		if seen[svc.Name] {
			return nil, fmt.Errorf("workload: duplicate service name %q", svc.Name)
		}
		seen[svc.Name] = true
		d := svc.Digest()
		truths, err := eng.Analyze(svc, d)
		if err != nil {
			return nil, fmt.Errorf("workload: label %s: %w", svc.Name, err)
		}
		corpus.Cases = append(corpus.Cases, newCase(svc, d, "external", Medium, truths))
	}
	return corpus, nil
}
