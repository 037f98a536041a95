package compile_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
	"github.com/dsn2015/vdbench/internal/workload"
)

// The differential suite is the contract that makes the VM trustworthy:
// for every workload template, every supported sink kind and both
// vulnerability knobs, the VM and the reference interpreter must produce
// deep-equal Results — taint spans, session-store effects and reject
// points included — on the oracle's probe pool and on seeded random
// requests. Nothing in the benchmark is allowed to observe which engine
// ran.

// diffSeeds are the seeds the end-to-end determinism suite also uses.
var diffSeeds = []uint64{1, 7, 42}

// refEngine executes on the reference interpreter; every differential
// comparison below runs its reference side through it.
var refEngine = reference.NewEngine()

// requireEqualResults compares two execution results semantically:
// per-character content and taint, not internal representation.
func requireEqualResults(t *testing.T, ctx string, ref, got svclang.Result) {
	t.Helper()
	if ref.Rejected != got.Rejected {
		t.Fatalf("%s: rejected: interpreter=%v vm=%v", ctx, ref.Rejected, got.Rejected)
	}
	if (ref.Events == nil) != (got.Events == nil) || len(ref.Events) != len(got.Events) {
		t.Fatalf("%s: events: interpreter=%d (nil=%v) vm=%d (nil=%v)",
			ctx, len(ref.Events), ref.Events == nil, len(got.Events), got.Events == nil)
	}
	for i := range ref.Events {
		re, ge := ref.Events[i], got.Events[i]
		if re.SinkID != ge.SinkID || re.Kind != ge.Kind || re.Silent != ge.Silent {
			t.Fatalf("%s: event %d metadata: interpreter=%+v vm=%+v", ctx, i, re, ge)
		}
		requireEqualTStrings(t, fmt.Sprintf("%s: event %d value", ctx, i), re.Value, ge.Value)
	}
}

func requireEqualTStrings(t *testing.T, ctx string, ref, got svclang.TString) {
	t.Helper()
	if ref.String() != got.String() {
		t.Fatalf("%s: content: interpreter=%q vm=%q", ctx, ref.String(), got.String())
	}
	if ref.Len() != got.Len() {
		t.Fatalf("%s: length: interpreter=%d vm=%d", ctx, ref.Len(), got.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		if ref.TaintedAt(i) != got.TaintedAt(i) {
			t.Fatalf("%s: taint at %d (%q): interpreter=%v vm=%v",
				ctx, i, string(ref.Runes()[i]), ref.TaintedAt(i), got.TaintedAt(i))
		}
	}
}

func requireEqualStores(t *testing.T, ctx string, ref, got *svclang.SessionStore) {
	t.Helper()
	rk, gk := ref.SortedKeys(), got.SortedKeys()
	if !reflect.DeepEqual(rk, gk) {
		t.Fatalf("%s: store keys: interpreter=%v vm=%v", ctx, rk, gk)
	}
	for _, k := range rk {
		requireEqualTStrings(t, fmt.Sprintf("%s: store[%q]", ctx, k), ref.Get(k), got.Get(k))
	}
}

// diffRequests builds the request set for a service: every oracle pool
// value on every parameter (uniform assignment), plus per-seed random
// assignments drawn from the pool and from random strings over an
// alphabet rich in sink metacharacters.
func diffRequests(svc *svclang.Service) []svclang.Request {
	pool := svclang.BenignValues()
	for _, k := range svclang.AllSinkKinds() {
		pool = append(pool, svclang.AttackPayloads(k)...)
	}
	pool = append(pool, "", " spaced out ", "UPPER lower 123", "a'b\"c<d>e&f;g|h$i`j\\k/l.m")

	var reqs []svclang.Request
	uniform := func(v string) svclang.Request {
		req := svclang.Request{}
		for _, p := range svc.Params {
			req[p] = v
		}
		return req
	}
	for _, v := range pool {
		reqs = append(reqs, uniform(v))
	}
	const alphabet = "abc123'\"<>&;|$`\\/. �é世"
	for _, seed := range diffSeeds {
		rng := stats.NewRNG(seed)
		for n := 0; n < 8; n++ {
			req := svclang.Request{}
			for _, p := range svc.Params {
				if rng.Intn(2) == 0 {
					req[p] = pool[rng.Intn(len(pool))]
				} else {
					runes := make([]rune, rng.Intn(12))
					for i := range runes {
						runes[i] = []rune(alphabet)[rng.Intn(len([]rune(alphabet)))]
					}
					req[p] = string(runes)
				}
			}
			// Occasionally drop a parameter to exercise the missing-param
			// (tainted empty) path.
			if len(svc.Params) > 0 && rng.Intn(4) == 0 {
				delete(req, svc.Params[rng.Intn(len(svc.Params))])
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// runDifferential drives one service through both engines on the full
// request set: fresh-store singles and shared-store pairs.
func runDifferential(t *testing.T, ctx string, eng *compile.Engine, svc *svclang.Service) {
	t.Helper()
	reqs := diffRequests(svc)
	for i, req := range reqs {
		rctx := fmt.Sprintf("%s: req %d %v", ctx, i, req)
		ref, refErr := refEngine.ExecuteInSession(svc, req, nil)
		got, gotErr := eng.ExecuteInSession(svc, req, nil)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error: interpreter=%v vm=%v", rctx, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		requireEqualResults(t, rctx, ref, got)
	}
	// Two-request shared-session sequences: cover store persistence and
	// second-order flows. Pair each request with its successor.
	for i := 0; i+1 < len(reqs); i += 2 {
		rctx := fmt.Sprintf("%s: seq %d", ctx, i)
		refStore, gotStore := svclang.NewSessionStore(), svclang.NewSessionStore()
		for j, req := range []svclang.Request{reqs[i], reqs[i+1]} {
			ref, refErr := refEngine.ExecuteInSession(svc, req, refStore)
			got, gotErr := eng.ExecuteInSession(svc, req, gotStore)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: step %d error: interpreter=%v vm=%v", rctx, j, refErr, gotErr)
			}
			if refErr != nil {
				break
			}
			requireEqualResults(t, fmt.Sprintf("%s: step %d", rctx, j), ref, got)
			requireEqualStores(t, fmt.Sprintf("%s: step %d", rctx, j), refStore, gotStore)
		}
	}
}

// TestExecDifferentialTemplates locks the VM to the interpreter over the
// entire template library: every template × every supported kind ×
// vulnerable/safe, on oracle-pool and seeded random requests.
func TestExecDifferentialTemplates(t *testing.T) {
	eng := compile.NewEngine()
	for _, tmpl := range workload.Templates() {
		for _, kind := range tmpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/vuln=%v", tmpl.Name, kind, vulnerable)
				t.Run(name, func(t *testing.T) {
					svc, _ := tmpl.Build("diff_svc", kind, vulnerable)
					runDifferential(t, name, eng, svc)
				})
			}
		}
	}
}

// TestAnalyzeDifferentialTemplates pins the oracle's execution seam:
// ground truth derived through the VM must be identical (witnesses and
// sequences included) to the same pruned search run on the reference
// interpreter's probe.
func TestAnalyzeDifferentialTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle differential skipped in -short")
	}
	eng := compile.NewEngine()
	for _, tmpl := range workload.Templates() {
		for _, kind := range tmpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/vuln=%v", tmpl.Name, kind, vulnerable)
				t.Run(name, func(t *testing.T) {
					svc, _ := tmpl.Build("diff_svc", kind, vulnerable)
					ref, refErr := svclang.AnalyzeProbing(svc, reference.Probe)
					got, gotErr := eng.Analyze(svc, svc.Digest())
					if (refErr == nil) != (gotErr == nil) {
						t.Fatalf("analyze error: interpreter=%v vm=%v", refErr, gotErr)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Fatalf("ground truth diverged:\ninterpreter=%+v\nvm=%+v", ref, got)
					}
				})
			}
		}
	}
}

// obsEvent is one streamed observation, with the value copied out of
// the callback's transient view and fingerprinted the way the
// pentester does.
type obsEvent struct {
	sinkID int
	kind   svclang.SinkKind
	silent bool
	value  string
	fp     uint64
}

// observeStream collects a binding's full Observe stream for one
// request against a given store.
func observeStream(t *testing.T, b *compile.Binding, req svclang.Request, store *svclang.SessionStore) ([]obsEvent, bool) {
	t.Helper()
	var events []obsEvent
	rejected, err := b.Observe(req, store, func(sinkID int, kind svclang.SinkKind, silent bool, chars []rune) {
		events = append(events, obsEvent{
			sinkID: sinkID,
			kind:   kind,
			silent: silent,
			value:  string(chars),
			fp:     svclang.StructureFingerprint(kind, chars),
		})
	})
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	return events, rejected
}

// TestObserveDifferentialTemplates locks the streaming observation path
// to the materialising one on both engines: the Observe streams of a
// VM binding and of a reference-engine binding, each bound once per
// service and reused for every request, and the interpreter's
// Result.Events must agree event for event — IDs, kinds, silence,
// values, structure fingerprints, rejection and session-store effects.
// This is the contract the pentester's zero-allocation probing stands
// on.
func TestObserveDifferentialTemplates(t *testing.T) {
	vm := compile.NewEngine()
	interp := refEngine
	for _, tmpl := range workload.Templates() {
		for _, kind := range tmpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/vuln=%v", tmpl.Name, kind, vulnerable)
				t.Run(name, func(t *testing.T) {
					svc, _ := tmpl.Build("diff_svc", kind, vulnerable)
					refStore, vmStore, interpStore := svclang.NewSessionStore(), svclang.NewSessionStore(), svclang.NewSessionStore()
					var vmBind, interpBind compile.Binding
					if err := vm.Bind(&vmBind, svc, svc.Digest()); err != nil {
						t.Fatal(err)
					}
					defer vmBind.Release()
					if err := interp.Bind(&interpBind, svc, svc.Digest()); err != nil {
						t.Fatal(err)
					}
					defer interpBind.Release()
					for i, req := range diffRequests(svc) {
						rctx := fmt.Sprintf("req %d %v", i, req)
						res, err := svclang.ExecuteInSession(svc, req, refStore)
						if err != nil {
							t.Fatalf("%s: interpreter: %v", rctx, err)
						}
						want := make([]obsEvent, 0, len(res.Events))
						for _, ev := range res.Events {
							want = append(want, obsEvent{
								sinkID: ev.SinkID,
								kind:   ev.Kind,
								silent: ev.Silent,
								value:  ev.Value.String(),
								fp:     svclang.StructureFingerprint(ev.Kind, ev.Value.Runes()),
							})
						}
						vmEvents, vmRejected := observeStream(t, &vmBind, req, vmStore)
						interpEvents, interpRejected := observeStream(t, &interpBind, req, interpStore)
						if vmRejected != res.Rejected || interpRejected != res.Rejected {
							t.Fatalf("%s: rejected: interpreter=%v vm-observe=%v interp-observe=%v",
								rctx, res.Rejected, vmRejected, interpRejected)
						}
						if len(vmEvents) != len(want) || len(interpEvents) != len(want) {
							t.Fatalf("%s: event counts: interpreter=%d vm-observe=%d interp-observe=%d",
								rctx, len(want), len(vmEvents), len(interpEvents))
						}
						for j := range want {
							if vmEvents[j] != want[j] {
								t.Fatalf("%s: event %d: interpreter=%+v vm-observe=%+v", rctx, j, want[j], vmEvents[j])
							}
							if interpEvents[j] != want[j] {
								t.Fatalf("%s: event %d: interpreter=%+v interp-observe=%+v", rctx, j, want[j], interpEvents[j])
							}
						}
						requireEqualStores(t, rctx+": vm store", refStore, vmStore)
						requireEqualStores(t, rctx+": interp store", refStore, interpStore)
					}
				})
			}
		}
	}
}

// TestEngineInterpreterMode checks the reference engine's execution is
// a true pass-through: reference.NewEngine and the raw interpreter are
// the same function.
func TestEngineInterpreterMode(t *testing.T) {
	eng := reference.NewEngine()
	tmpl := workload.Templates()[0]
	svc, _ := tmpl.Build("interp_svc", tmpl.Kinds[0], true)
	for _, req := range diffRequests(svc)[:6] {
		ref, refErr := svclang.Execute(svc, req)
		got, gotErr := eng.ExecuteInSession(svc, req, nil)
		if (refErr == nil) != (gotErr == nil) || !reflect.DeepEqual(ref, got) {
			t.Fatalf("reference engine diverged on %v", req)
		}
	}
}

// FuzzExecDifferential fuzzes service source and request parameters
// through both engines, corpus-seeded from every template. Invalid
// sources must fail identically; valid ones must produce deep-equal
// results and session effects.
func FuzzExecDifferential(f *testing.F) {
	for _, tmpl := range workload.Templates() {
		for _, kind := range tmpl.Kinds {
			for _, vulnerable := range []bool{true, false} {
				svc, _ := tmpl.Build("fuzz_seed", kind, vulnerable)
				f.Add(svclang.Print(svc), "' OR '1'='1", "<script>alert(1)</script>", "../../etc/passwd")
			}
		}
	}
	eng := compile.NewEngine()
	f.Fuzz(func(t *testing.T, src, p1, p2, p3 string) {
		svc, err := svclang.ParseOne(src)
		if err != nil {
			return
		}
		req := svclang.Request{}
		for i, p := range svc.Params {
			switch i {
			case 0:
				req[p] = p1
			case 1:
				req[p] = p2
			case 2:
				req[p] = p3
			}
		}
		ref, refErr := refEngine.ExecuteInSession(svc, req, nil)
		got, gotErr := eng.ExecuteInSession(svc, req, nil)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: interpreter=%v vm=%v\nsrc:\n%s", refErr, gotErr, src)
		}
		if refErr != nil {
			return
		}
		requireEqualResults(t, "fuzz single", ref, got)

		// Re-run the same request twice in one session to exercise the
		// store paths under fuzzing too.
		refStore, gotStore := svclang.NewSessionStore(), svclang.NewSessionStore()
		for j := 0; j < 2; j++ {
			ref, refErr = refEngine.ExecuteInSession(svc, req, refStore)
			got, gotErr = eng.ExecuteInSession(svc, req, gotStore)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("session error divergence: interpreter=%v vm=%v", refErr, gotErr)
			}
			if refErr != nil {
				return
			}
			requireEqualResults(t, fmt.Sprintf("fuzz session step %d", j), ref, got)
			requireEqualStores(t, fmt.Sprintf("fuzz session step %d", j), refStore, gotStore)
		}
	})
}
