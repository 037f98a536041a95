package svclang

import (
	"reflect"
	"testing"
)

// interpProbe adapts the reference interpreter to ProbeFunc, judging
// events with the shared structural-taint table — the probe the
// differential suite trusts. It is reference.Probe, which tests inside
// this package cannot import (package reference imports svclang).
func interpProbe(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error {
	res, err := ExecuteInSession(svc, req, store)
	if err != nil {
		return err
	}
	for _, ev := range res.Events {
		obs(ev.SinkID, ev.Kind, StructuralTaint(ev.Kind, ev.Value))
	}
	return nil
}

// TestAnalyzePruningMatchesExhaustive locks the influence-guided search
// to the exhaustive one, witnesses and sequences included, over random
// services. This is the theorem the pruning design rests on; the
// template-matrix differential in internal/svclang/compile covers the
// curated workload shapes through both engines.
func TestAnalyzePruningMatchesExhaustive(t *testing.T) {
	trials := uint64(propertyTrials)
	if testing.Short() {
		trials = 25
	}
	for seed := uint64(0); seed < trials; seed++ {
		svc := randomService(seed)
		pruned, prunedErr := AnalyzeProbing(svc, interpProbe)
		exh, exhErr := AnalyzeProbingExhaustive(svc, interpProbe)
		if (prunedErr == nil) != (exhErr == nil) {
			t.Fatalf("seed %d: error divergence: pruned=%v exhaustive=%v\nsrc:\n%s", seed, prunedErr, exhErr, Print(svc))
		}
		if prunedErr != nil {
			continue
		}
		if !reflect.DeepEqual(pruned, exh) {
			t.Fatalf("seed %d: ground truth diverged:\npruned=%+v\nexhaustive=%+v\nsrc:\n%s", seed, pruned, exh, Print(svc))
		}
	}
}

// TestAnalyzeEarlyExitNeverChangesLabels runs the pruned search with
// and without early exit over 1000 generated services: stopping a group
// once every sink is proven vulnerable must never change a label, a
// witness or a sequence. Both searches are pruned, so the trial count
// can be large.
func TestAnalyzeEarlyExitNeverChangesLabels(t *testing.T) {
	trials := uint64(1000)
	if testing.Short() {
		trials = 100
	}
	for seed := uint64(0); seed < trials; seed++ {
		svc := randomService(seed)
		withExit, errA := analyzeProbing(svc, interpProbe, oracleModePruned)
		without, errB := analyzeProbing(svc, interpProbe, oracleModePrunedNoExit)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: error divergence: earlyExit=%v noExit=%v\nsrc:\n%s", seed, errA, errB, Print(svc))
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(withExit, without) {
			t.Fatalf("seed %d: early exit changed ground truth:\nwith=%+v\nwithout=%+v\nsrc:\n%s", seed, withExit, without, Print(svc))
		}
	}
}

// oraclePoolSize is the value-pool size the accounting tests assume;
// pinned here so a pool change fails loudly instead of silently skewing
// the expected probe spaces.
func oraclePoolSize(t *testing.T) uint64 {
	t.Helper()
	n := len(BenignValues())
	for _, k := range AllSinkKinds() {
		n += len(AttackPayloads(k))
	}
	if n != 20 {
		t.Fatalf("oracle pool size changed: got %d, tests assume 20", n)
	}
	return uint64(n)
}

// exhaustiveSpace is the exhaustive request-execution count for svc.
func exhaustiveSpace(svc *Service, pool uint64) uint64 {
	if len(svc.Sinks()) == 0 {
		return 0
	}
	if svc.UsesStore() {
		return 2 * pool * pool
	}
	space := uint64(1)
	for range svc.Params {
		space *= pool
	}
	return space
}

// TestOracleCounterConsistency pins the probe accounting: over any mix
// of pruned and exhaustive analyses, executed + pruned must equal the
// sum of the exhaustive spaces, and the exhaustive search must
// contribute zero pruned probes.
func TestOracleCounterConsistency(t *testing.T) {
	pool := oraclePoolSize(t)
	var space uint64

	before := OracleTotalsSnapshot()
	for seed := uint64(0); seed < 40; seed++ {
		svc := randomService(seed)
		if _, err := AnalyzeProbing(svc, interpProbe); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		space += exhaustiveSpace(svc, pool)
	}
	after := OracleTotalsSnapshot()
	if got := (after.Probes - before.Probes) + (after.Pruned - before.Pruned); got != space {
		t.Fatalf("pruned search accounting: executed+pruned = %d, exhaustive space = %d", got, space)
	}

	before = after
	svc := randomService(3)
	if _, err := AnalyzeProbingExhaustive(svc, interpProbe); err != nil {
		t.Fatalf("exhaustive analyze: %v", err)
	}
	after = OracleTotalsSnapshot()
	if got, want := after.Probes-before.Probes, exhaustiveSpace(svc, pool); got != want {
		t.Fatalf("exhaustive search executed %d probes, space is %d", got, want)
	}
	if d := after.Pruned - before.Pruned; d != 0 {
		t.Fatalf("exhaustive search recorded %d pruned probes, want 0", d)
	}
}

// TestOracleStaticSafeZeroProbes pins the strongest cut: sinks no
// parameter data can reach — constant sinks and sinks in statically
// dead branches — are labelled safe without a single probe.
func TestOracleStaticSafeZeroProbes(t *testing.T) {
	svc := &Service{
		Name:   "static_safe",
		Params: []string{"p"},
		Body: []Stmt{
			Sink{ID: 0, Kind: SinkSQL, Expr: Lit{Value: "SELECT 1"}},
			If{
				Cond: BoolLit{Value: false},
				Then: []Stmt{Sink{ID: 1, Kind: SinkCmd, Expr: Ident{Name: "p"}}},
			},
		},
	}
	before := OracleTotalsSnapshot()
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	after := OracleTotalsSnapshot()
	if d := after.Probes - before.Probes; d != 0 {
		t.Fatalf("statically safe service executed %d probes, want 0", d)
	}
	if d := after.Pruned - before.Pruned; d != 20 {
		t.Fatalf("pruned counter advanced by %d, want the full space 20", d)
	}
	for _, gt := range truths {
		if gt.Vulnerable || gt.Witness != nil || gt.Sequence != nil {
			t.Fatalf("static-safe sink %d labelled %+v", gt.SinkID, gt)
		}
	}

	// The exhaustive search must agree, the expensive way.
	exh, err := AnalyzeProbingExhaustive(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(truths, exh) {
		t.Fatalf("pruned=%+v exhaustive=%+v", truths, exh)
	}
}

// FuzzAnalyzePruningDifferential fuzzes service sources through both
// searches: any parse-valid service must receive identical ground truth
// — labels, witnesses and sequences — from the pruned and exhaustive
// enumerations.
func FuzzAnalyzePruningDifferential(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(Print(randomService(seed)))
	}
	f.Add("service s\n  param p\n  sink sql concat(\"SELECT '\", p, \"'\")\nend\n")
	f.Add("service s\n  param p\n  if not matches(p, alnum)\n    reject\n  end\n  sink cmd concat(\"ls \", p)\nend\n")
	f.Fuzz(func(t *testing.T, src string) {
		svc, err := ParseOne(src)
		if err != nil {
			return
		}
		pruned, prunedErr := AnalyzeProbing(svc, interpProbe)
		exh, exhErr := AnalyzeProbingExhaustive(svc, interpProbe)
		if (prunedErr == nil) != (exhErr == nil) {
			t.Fatalf("error divergence: pruned=%v exhaustive=%v\nsrc:\n%s", prunedErr, exhErr, src)
		}
		if prunedErr != nil {
			return
		}
		if !reflect.DeepEqual(pruned, exh) {
			t.Fatalf("ground truth diverged:\npruned=%+v\nexhaustive=%+v\nsrc:\n%s", pruned, exh, src)
		}
	})
}
