package linalg_test

import (
	"testing"

	"github.com/dsn2015/vdbench/internal/linalg"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
)

// BenchmarkPowerIteration measures one AHP priority derivation as E10
// runs it: power iteration, in one reused workspace, over the usage
// scenarios' consensus matrices perturbed at each of E10's sigmas (16
// matrices per (scenario, sigma), drawn before the timer starts).
func BenchmarkPowerIteration(b *testing.B) {
	rng := stats.NewRNG(10)
	var ms []*linalg.Matrix
	for _, s := range scenario.Scenarios() {
		weights, err := s.WeightVector()
		if err != nil {
			b.Fatal(err)
		}
		consensus, err := mcda.FromWeights(weights)
		if err != nil {
			b.Fatal(err)
		}
		n := consensus.N()
		for _, sigma := range e10Sigmas {
			for range 16 {
				noisy, err := mcda.Perturb(consensus, sigma, rng)
				if err != nil {
					b.Fatal(err)
				}
				m, _ := linalg.New(n, n)
				for i := range n {
					for j := range n {
						m.Set(i, j, noisy.At(i, j))
					}
				}
				ms = append(ms, m)
			}
		}
	}
	var w linalg.PowerWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(ms[i%len(ms)], 10000, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
