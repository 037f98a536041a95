package svclang

import (
	"errors"
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
	n := len(oraclePool())
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

// oraclePool is the oracle's value pool, in enumeration order.
func oraclePool() []string {
	pool := BenignValues()
	for _, k := range AllSinkKinds() {
		pool = append(pool, AttackPayloads(k)...)
	}
	return pool
}

// probeCall is one recorded oracle probe.
type probeCall struct {
	req   Request
	store *SessionStore
}

// recordingProbe wraps inner and records every call, request cloned.
func recordingProbe(calls *[]probeCall, inner ProbeFunc) ProbeFunc {
	return func(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error {
		*calls = append(*calls, probeCall{req: cloneRequest(req), store: store})
		return inner(svc, req, store, obs)
	}
}

// TestExhaustiveSweepOrder pins the exact request sequence the
// exhaustive search sends — order and count — to plain nested loops
// over the pool: for stateless services the first parameter varies
// fastest, with no session store; a stateful service sends each (v1, v2)
// pair as two requests on one fresh store, v1 outermost.
func TestExhaustiveSweepOrder(t *testing.T) {
	pool := oraclePool()
	silent := func(*Service, Request, *SessionStore, ProbeObserver) error { return nil }
	stateless := []string{
		"service s0\n  sink sql \"SELECT 1\"\nend\n",
		"service s1\n  param a\n  sink sql a\nend\n",
		"service s2\n  param a\n  param b\n  sink sql concat(a, b)\nend\n",
		"service s3\n  param a\n  param b\n  param c\n  sink sql concat(a, b, c)\nend\n",
	}
	for _, src := range stateless {
		svc := mustParse(t, src)
		// Each later parameter wraps the whole list so far, so the first
		// parameter ends up innermost.
		want := []Request{{}}
		for _, p := range svc.Params {
			var outer []Request
			for _, v := range pool {
				for _, r := range want {
					r = cloneRequest(r)
					r[p] = v
					outer = append(outer, r)
				}
			}
			want = outer
		}
		var calls []probeCall
		if _, err := AnalyzeProbingExhaustive(svc, recordingProbe(&calls, silent)); err != nil {
			t.Fatal(err)
		}
		if len(calls) != len(want) {
			t.Fatalf("%s: %d probes, nested loops give %d", svc.Name, len(calls), len(want))
		}
		for i, c := range calls {
			if c.store != nil || !reflect.DeepEqual(c.req, want[i]) {
				t.Fatalf("%s: probe %d is %v (store %p), nested loops give %v", svc.Name, i, c.req, c.store, want[i])
			}
		}
	}

	svc := mustParse(t, storedXSSSrc)
	var calls []probeCall
	if _, err := AnalyzeProbingExhaustive(svc, recordingProbe(&calls, silent)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2*len(pool)*len(pool) {
		t.Fatalf("stateful: %d probes, nested loops give %d", len(calls), 2*len(pool)*len(pool))
	}
	i := 0
	for _, v1 := range pool {
		for _, v2 := range pool {
			first, second := calls[i], calls[i+1]
			if !reflect.DeepEqual(first.req, Request{"msg": v1}) || !reflect.DeepEqual(second.req, Request{"msg": v2}) {
				t.Fatalf("stateful: pair %d is %v, %v; nested loops give %q, %q", i/2, first.req, second.req, v1, v2)
			}
			if first.store == nil || second.store != first.store || (i > 0 && calls[i-1].store == first.store) {
				t.Fatalf("stateful: pair %d does not run on one fresh session store", i/2)
			}
			i += 2
		}
	}
}

// TestOracleProbeErrorAbortsEveryMode fails the k-th probe of every
// search mode, stateless and stateful. Each search must stop at that
// probe and return its error, and the counters must charge exactly the
// k probes executed, with no early exit.
func TestOracleProbeErrorAbortsEveryMode(t *testing.T) {
	pool := oraclePoolSize(t)
	errProbe := errors.New("probe failed")
	services := []*Service{
		mustParse(t, "service s\n  param p\n  param q\n  sink sql concat(\"SELECT '\", p, \"' AND '\", q, \"'\")\nend\n"),
		mustParse(t, storedXSSSrc),
	}
	modes := map[string]oracleMode{
		"pruned":         oracleModePruned,
		"pruned-no-exit": oracleModePrunedNoExit,
		"exhaustive":     oracleModeExhaustive,
	}
	for _, svc := range services {
		for name, mode := range modes {
			for k := 1; k <= 3; k++ {
				calls := 0
				failing := func(svc *Service, req Request, store *SessionStore, obs ProbeObserver) error {
					if calls++; calls == k {
						return errProbe
					}
					return interpProbe(svc, req, store, obs)
				}
				before := OracleTotalsSnapshot()
				truths, err := analyzeProbing(svc, failing, mode)
				after := OracleTotalsSnapshot()
				if !errors.Is(err, errProbe) || truths != nil {
					t.Fatalf("%s/%s k=%d: got %v, %v; want the probe's error", svc.Name, name, k, truths, err)
				}
				if calls != k {
					t.Fatalf("%s/%s k=%d: %d probes called, want %d", svc.Name, name, k, calls, k)
				}
				probes, pruned := after.Probes-before.Probes, after.Pruned-before.Pruned
				if probes != uint64(k) || probes+pruned != exhaustiveSpace(svc, pool) || after.EarlyExits != before.EarlyExits {
					t.Fatalf("%s/%s k=%d: counters moved by %+v", svc.Name, name, k, OracleTotals{probes, pruned, after.EarlyExits - before.EarlyExits})
				}
			}
		}
	}
}

// TestOracleEarlyExitMidPair runs a stateful service whose sink fires
// only on the poisoning request (the request that finds the store
// empty): early exit must stop right after that request, leaving the
// pair's triggering request unsent, record a one-request sequence and
// count one early exit.
func TestOracleEarlyExitMidPair(t *testing.T) {
	svc := mustParse(t, `
service Poison
  param p
  if eq(load("k"), "")
    sink sql concat("SELECT '", p, "'")
  end
  store "k" "x"
end
`)
	var calls []probeCall
	before := OracleTotalsSnapshot()
	truths, err := AnalyzeProbing(svc, recordingProbe(&calls, interpProbe))
	after := OracleTotalsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	gt := truths[0]
	if !gt.Vulnerable || len(gt.Sequence) != 1 {
		t.Fatalf("got %+v, want a one-request witness", gt)
	}
	last := calls[len(calls)-1]
	if len(calls)%2 != 1 || last.store == calls[len(calls)-2].store || !reflect.DeepEqual(last.req, gt.Witness) {
		t.Fatalf("search did not stop after the poisoning request: %d probes, last %v", len(calls), last.req)
	}
	if d := after.Probes - before.Probes; d != uint64(len(calls)) {
		t.Fatalf("probe counter advanced by %d, %d probes ran", d, len(calls))
	}
	if d := after.EarlyExits - before.EarlyExits; d != 1 {
		t.Fatalf("early-exit counter advanced by %d, want 1", d)
	}
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
