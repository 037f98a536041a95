package harness

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// TestRunCtxWorkerEquivalence is the admissibility proof for the worker
// pool: for every tested seed and worker count, RunCtx must produce a
// Campaign deep-equal to the one-worker run — same Outcomes order, same confusion
// matrices, same By* split maps. Any divergence means parallelism changed
// the science, which is never acceptable.
func TestRunCtxWorkerEquivalence(t *testing.T) {
	corpus := testCorpus(t, 50, 3)
	tools := testTools(t)
	for _, seed := range []uint64{1, 7, 42} {
		serial, err := runSeed(corpus, tools, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 13} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				par, err := runSeed(corpus, tools, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(par.Results) != len(serial.Results) {
					t.Fatalf("parallel produced %d results, serial %d", len(par.Results), len(serial.Results))
				}
				for i := range serial.Results {
					s, p := &serial.Results[i], &par.Results[i]
					if !reflect.DeepEqual(s.Outcomes, p.Outcomes) {
						t.Errorf("%s: outcome sequences differ", s.Tool)
					}
					if s.Overall != p.Overall {
						t.Errorf("%s: overall matrix differs: serial %s, parallel %s", s.Tool, s.Overall, p.Overall)
					}
					if !reflect.DeepEqual(s.ByKind, p.ByKind) ||
						!reflect.DeepEqual(s.ByDifficulty, p.ByDifficulty) ||
						!reflect.DeepEqual(s.ByTemplate, p.ByTemplate) {
						t.Errorf("%s: split maps differ", s.Tool)
					}
				}
				if !reflect.DeepEqual(serial, par) {
					t.Error("campaigns not deep-equal")
				}
			})
		}
	}
}

// TestRunCtxDefaultWorkers exercises the workers<=0 =>
// GOMAXPROCS(0) path.
func TestRunCtxDefaultWorkers(t *testing.T) {
	corpus := testCorpus(t, 20, 1)
	tools := testTools(t)
	serial, err := runSeed(corpus, tools, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1} {
		par, err := runSeed(corpus, tools, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

// failingTool errors on every case, exercising the pool's abort path.
type failingTool struct{ name string }

func (f failingTool) Name() string { return f.name }

func (f failingTool) Class() detectors.Class { return detectors.ClassSAST }

func (f failingTool) Analyze(cs workload.Case, _ *stats.RNG) ([]detectors.Report, error) {
	return nil, fmt.Errorf("%s always fails", f.name)
}

// TestRunCtxPropagatesErrors asserts a failing tool aborts the
// campaign under every worker count.
func TestRunCtxPropagatesErrors(t *testing.T) {
	corpus := testCorpus(t, 10, 1)
	tools := []detectors.Tool{failingTool{name: "broken"}}
	for _, workers := range []int{1, 4} {
		if _, err := runSeed(corpus, tools, 1, workers); err == nil {
			t.Errorf("workers=%d: failing tool did not abort the campaign", workers)
		}
	}
}
