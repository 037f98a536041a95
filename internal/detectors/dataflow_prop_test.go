package detectors

import (
	"testing"

	"github.com/dsn2015/vdbench/internal/dataflow"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/workload"
)

// randFact draws a random taintFact over up to nvars slots. The vector
// length itself is drawn too: the lattice must treat a short vector and
// its zero-padded extension as the same environment.
func randFact(rng *stats.RNG, nvars int) taintFact {
	if rng.Bernoulli(0.15) {
		return taintFact{} // bottom
	}
	vars := make([]absVal, rng.Intn(nvars+1))
	for i := range vars {
		if rng.Bernoulli(0.5) {
			vars[i] = absVal{
				dangerous: kindMask(rng.Intn(int(allKindsMask()) + 1)),
				sanitized: rng.Bernoulli(0.3),
			}
		}
	}
	return taintFact{live: true, vars: vars}
}

// TestTaintLatticeLaws property-checks the join-semilattice axioms the
// solver's correctness rests on: commutativity, associativity,
// idempotence, and bottom as the identity — over randomly drawn facts,
// including facts that mention different variable sets.
func TestTaintLatticeLaws(t *testing.T) {
	lat := taintLattice{}
	const nvars = 4
	rng := stats.NewRNG(20150622)
	for i := 0; i < 5000; i++ {
		a, b, c := randFact(rng, nvars), randFact(rng, nvars), randFact(rng, nvars)
		if !lat.Equal(lat.Join(a, b), lat.Join(b, a)) {
			t.Fatalf("join not commutative: %+v vs %+v", a, b)
		}
		if !lat.Equal(lat.Join(lat.Join(a, b), c), lat.Join(a, lat.Join(b, c))) {
			t.Fatalf("join not associative: %+v %+v %+v", a, b, c)
		}
		if !lat.Equal(lat.Join(a, a), a) {
			t.Fatalf("join not idempotent: %+v", a)
		}
		if !lat.Equal(lat.Join(a, lat.Bottom()), a) || !lat.Equal(lat.Join(lat.Bottom(), a), a) {
			t.Fatalf("bottom not the join identity: %+v", a)
		}
	}
}

// latticeHeight bounds the longest strictly-ascending chain of taintFacts
// over nvars variables: one step to become live, and per variable five
// dangerous bits plus the sanitized flag.
func latticeHeight(nvars int) int {
	return 1 + nvars*6
}

// TestSolverFixpointOnGeneratedCFGs is the solver convergence property
// test of the ISSUE: on 1000 generated-service CFGs the worklist must
// reach a fixpoint within |blocks| × lattice-height transfer evaluations,
// and the solution must actually be a fixpoint of the transfer function.
func TestSolverFixpointOnGeneratedCFGs(t *testing.T) {
	cfgKnobs := TaintSASTConfig{
		Name:      "prop",
		SinkAware: true,
	}
	tool := &taintSAST{cfg: cfgKnobs}
	services := 0
	for _, seed := range []uint64{3, 11, 2015} {
		corpus, err := workload.Generate(workload.Config{
			Services:         334,
			TargetPrevalence: 0.4,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range corpus.Cases {
			services++
			checkFixpoint(t, tool, cs.Service)
		}
	}
	if services < 1000 {
		t.Fatalf("property corpus has %d services, want >= 1000", services)
	}
}

func checkFixpoint(t *testing.T, tool *taintSAST, svc *svclang.Service) {
	t.Helper()
	g := cfg.Build(svc, cfg.Options{}) // loops tracked: the hard case for convergence
	run := newDataflowRun(tool, svc.Name, g)
	run.nextStore = make([]absVal, len(g.StoreKeys))
	transfer := func(n int, in taintFact) taintFact {
		return run.transfer(g.Blocks[n], in)
	}
	lat := taintLattice{}
	res := dataflow.Solve[taintFact](g, lat, run.entryFact(), transfer)

	if bound := g.NumNodes() * latticeHeight(len(g.Vars)); res.Visits > bound {
		t.Fatalf("%s: %d visits exceeds |blocks|·height = %d·%d = %d",
			svc.Name, res.Visits, g.NumNodes(), latticeHeight(len(g.Vars)), bound)
	}
	// The solution is a fixpoint: every out-fact is the transfer of its
	// in-fact, and every reachable edge's flow is absorbed by the
	// successor's in-fact.
	for n := 0; n < g.NumNodes(); n++ {
		if !lat.Equal(res.Out[n], transfer(n, res.In[n])) {
			t.Fatalf("%s block %d: out != transfer(in)", svc.Name, n)
		}
		for _, succ := range g.Succs(n) {
			if !lat.Equal(lat.Join(res.In[succ], res.Out[n]), res.In[succ]) {
				t.Fatalf("%s edge %d->%d: successor in-fact does not absorb the out-fact", svc.Name, n, succ)
			}
		}
	}
}
