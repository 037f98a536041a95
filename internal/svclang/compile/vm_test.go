package compile

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// vmTestSrc mirrors the root benchmark service: validation reject, both
// branch arms, a loop, a sanitizer and a sink.
const vmTestSrc = `
service VMTest
  param id
  param mode
  var q
  if not matches(id, alnum)
    reject
  end
  if eq(mode, "alpha")
    q = concat("SELECT * FROM t WHERE a='", escape_sql(id), "'")
  else
    q = concat("SELECT * FROM t WHERE a='", id, "'")
  end
  repeat 3
    q = concat(q, numeric(id))
  end
  sink sql q
end
`

const vmStoreSrc = `
service VMStore
  param v
  store "k" trim(v)
  sink sql concat("x='", load("k"), "'")
end
`

func mustParse(t testing.TB, src string) *svclang.Service {
	t.Helper()
	svc, err := svclang.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return svc
}

func sameResult(t *testing.T, ctx string, ref, got svclang.Result) {
	t.Helper()
	if ref.Rejected != got.Rejected || len(ref.Events) != len(got.Events) {
		t.Fatalf("%s: shape: interpreter=%+v vm=%+v", ctx, ref, got)
	}
	for i := range ref.Events {
		re, ge := ref.Events[i], got.Events[i]
		if re.SinkID != ge.SinkID || re.Kind != ge.Kind || re.Silent != ge.Silent ||
			re.Value.String() != ge.Value.String() {
			t.Fatalf("%s: event %d: interpreter=%+v vm=%+v", ctx, i, re, ge)
		}
		for j := 0; j < re.Value.Len(); j++ {
			if re.Value.TaintedAt(j) != ge.Value.TaintedAt(j) {
				t.Fatalf("%s: event %d taint at %d differs", ctx, i, j)
			}
		}
	}
}

// poisonArena fills every piece of arena scratch with garbage that would
// be visible in results if any reset were missing: all-ones taint bits,
// junk runes, junk values on every slot and a fully "set" arena store.
func poisonArena(a *arena) {
	const slots = 512
	a.runes = make([]rune, slots)
	a.bits = make([]uint64, (slots+63)/64)
	for i := range a.runes {
		a.runes[i] = 'Z'
	}
	for i := range a.bits {
		a.bits[i] = ^uint64(0)
	}
	a.used = slots
	junk := value{chars: a.runes[:8], bits: a.bits, off: 0}
	a.stack = append(a.stack[:0], junk, junk, junk)
	a.vars = []value{junk, junk, junk, junk}
	a.loops = append(a.loops[:0], 9, 9)
	a.storeVals = []value{junk, junk}
	a.storeSet = []bool{true, true}
}

// TestPoisonedArenaReuse is the pooled-scratch-zeroing guarantee: an
// arena returned to the pool full of garbage (stale taint bits, stale
// store slots, junk runes) must not leak anything into the next request.
func TestPoisonedArenaReuse(t *testing.T) {
	eng := NewEngine()
	for _, src := range []string{vmTestSrc, vmStoreSrc} {
		svc := mustParse(t, src)
		reqs := []svclang.Request{
			{"id": "abc123", "mode": "alpha", "v": " sp ace "},
			{"id": "a'b", "mode": "other", "v": "x' OR '1'='1"},
			{"id": "", "mode": "", "v": ""},
		}
		for i, req := range reqs {
			// Poison the pooled arena before every execution; Get on the
			// same goroutine returns the poisoned arena preferentially.
			a := new(arena)
			poisonArena(a)
			eng.pool.Put(a)
			ref, err := svclang.Execute(svc, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.ExecuteInSession(svc, req, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s req %d", svc.Name, i), ref, got)
		}
	}
}

// TestArenaBeginZeroes checks the reset invariant directly: after begin,
// no taint bit survives and the arena store is empty.
func TestArenaBeginZeroes(t *testing.T) {
	svc := mustParse(t, vmStoreSrc)
	p, err := NewEngine().Program(svc, svc.Digest())
	if err != nil {
		t.Fatal(err)
	}
	a := new(arena)
	poisonArena(a)
	a.begin(p)
	for i, w := range a.bits {
		if w != 0 {
			t.Fatalf("bits[%d] = %x after begin", i, w)
		}
	}
	if a.used != 0 {
		t.Fatalf("used = %d after begin", a.used)
	}
	for i, set := range a.storeSet {
		if set {
			t.Fatalf("storeSet[%d] still true after begin", i)
		}
	}
}

// TestCompileErrorsMatchInterpreter: compilation must fail with exactly
// the interpreter's validation errors, so the engine seam is error-
// transparent too.
func TestCompileErrorsMatchInterpreter(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Program(nil, svclang.Digest{}); err == nil || err.Error() != "svclang: nil service" {
		t.Fatalf("Program(nil) = %v", err)
	}
	if _, err := eng.ExecuteInSession(nil, svclang.Request{}, nil); err == nil || err.Error() != "svclang: nil service" {
		t.Fatalf("ExecuteInSession(nil) = %v", err)
	}
	bad := &svclang.Service{Name: "Bad", Body: []svclang.Stmt{
		svclang.Assign{Name: "nope", Expr: svclang.Lit{Value: "x"}},
	}}
	_, refErr := svclang.Execute(bad, svclang.Request{})
	_, gotErr := eng.ExecuteInSession(bad, svclang.Request{}, nil)
	if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
		t.Fatalf("validation error mismatch: interpreter=%v vm=%v", refErr, gotErr)
	}
	var b Binding
	if err := eng.Bind(&b, bad, bad.Digest()); err == nil || err.Error() != refErr.Error() {
		t.Fatalf("Bind error mismatch: interpreter=%v vm=%v", refErr, err)
	}
	if b != (Binding{}) {
		t.Fatalf("failed Bind left the binding bound: %+v", b)
	}
}

// TestInvalidUTF8Needle pins the byte-level fallback for Contains/Eq
// needles that are not valid UTF-8 (reachable only through hand-built
// ASTs and fuzzing, but the semantics must still match: the interpreter
// compares raw bytes, where U+FFFD normalisation of the needle would
// change the answer).
func TestInvalidUTF8Needle(t *testing.T) {
	eng := NewEngine()
	for _, needle := range []string{"\xff", "a\xffb", "\xf0\x28"} {
		svc := &svclang.Service{
			Name:   "NB",
			Params: []string{"p"},
			Body: []svclang.Stmt{
				svclang.If{
					Cond: svclang.Contains{Expr: svclang.Ident{Name: "p"}, Needle: needle},
					Then: []svclang.Stmt{svclang.Sink{ID: 1, Kind: svclang.SinkSQL, Expr: svclang.Lit{Value: "hit"}}},
					Else: []svclang.Stmt{svclang.Sink{ID: 1, Kind: svclang.SinkSQL, Expr: svclang.Lit{Value: "miss"}}},
				},
				svclang.If{
					Cond: svclang.Eq{Expr: svclang.Ident{Name: "p"}, Value: needle},
					Then: []svclang.Stmt{svclang.Sink{ID: 2, Kind: svclang.SinkSQL, Expr: svclang.Lit{Value: "eq"}}},
					Else: []svclang.Stmt{svclang.Sink{ID: 2, Kind: svclang.SinkSQL, Expr: svclang.Lit{Value: "ne"}}},
				},
			},
		}
		for _, param := range []string{"", "\xff", needle, "�", "a�b", "abc"} {
			req := svclang.Request{"p": param}
			ref, refErr := svclang.Execute(svc, req)
			got, gotErr := eng.ExecuteInSession(svc, req, nil)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("needle %q param %q: errors %v vs %v", needle, param, refErr, gotErr)
			}
			if refErr == nil && !reflect.DeepEqual(resultShape(ref), resultShape(got)) {
				t.Fatalf("needle %q param %q: %v vs %v", needle, param, resultShape(ref), resultShape(got))
			}
		}
	}
}

func resultShape(r svclang.Result) []string {
	var out []string
	for _, ev := range r.Events {
		out = append(out, fmt.Sprintf("%d:%s", ev.SinkID, ev.Value.String()))
	}
	return out
}

// Allocation budgets for the compiled hot path. The VM's only escaping
// allocations are the events slice and the two slices behind each
// materialised event TString; everything else lives in the pooled arena.
// vmTestSrc records one event → 1 + 2 = 3 allocations. The >10% headroom
// rule from the issue, applied to integer budgets this small, means any
// regression of even one allocation fails.
const (
	allocBudgetExecute = 3
)

// TestAllocBudgetExecute locks the single-case compiled hot path to its
// post-PR allocation budget so the win cannot silently erode.
func TestAllocBudgetExecute(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	eng := NewEngine()
	svc := mustParse(t, vmTestSrc)
	req := svclang.Request{"id": "abc123", "mode": "alpha"}
	// Warm: compile the program and grow the pooled arena to steady state.
	if _, err := eng.ExecuteInSession(svc, req, nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := eng.ExecuteInSession(svc, req, nil); err != nil {
			t.Fatal(err)
		}
	})
	budget := float64(allocBudgetExecute) * 1.10
	if got > budget {
		t.Fatalf("compiled execute allocates %.1f/op, budget %d (+10%% = %.1f)", got, allocBudgetExecute, budget)
	}
	t.Logf("compiled execute: %.1f allocs/op (budget %d)", got, allocBudgetExecute)
}

// TestProgramCacheSingleflight: one compilation per service no matter how
// many executions, with hit/miss telemetry, and one program lookup per
// binding no matter how many executions run through it.
func TestProgramCacheSingleflight(t *testing.T) {
	eng := NewEngine()
	svc := mustParse(t, vmTestSrc)
	req := svclang.Request{"id": "abc123", "mode": "alpha"}
	for i := 0; i < 10; i++ {
		if _, err := eng.ExecuteInSession(svc, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := eng.Stats()
	if misses != 1 || hits != 9 {
		t.Fatalf("stats = %d hits, %d misses; want 9/1", hits, misses)
	}
	var b Binding
	if err := eng.Bind(&b, svc, svc.Digest()); err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	for i := 0; i < 10; i++ {
		if _, err := b.Observe(req, nil, func(int, svclang.SinkKind, bool, []rune) {}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses = eng.Stats(); misses != 1 || hits != 10 {
		t.Fatalf("stats after a bound run = %d hits, %d misses; want 10/1", hits, misses)
	}
}

// TestEventBoundCoversLoops: the static event bound must dominate the
// true event count (it sizes the single events allocation).
func TestEventBoundCoversLoops(t *testing.T) {
	svc := mustParse(t, vmTestSrc)
	p, err := NewEngine().Program(svc, svc.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if p.eventBound < 1 {
		t.Fatalf("eventBound = %d", p.eventBound)
	}
	res, err := svclang.Execute(svc, svclang.Request{"id": "abc123", "mode": "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) > p.eventBound {
		t.Fatalf("bound %d < actual %d", p.eventBound, len(res.Events))
	}
}

// TestTrimViewSharing: trim must be view arithmetic, not a copy — the
// compiled counterpart of the interpreter's slicing trim.
func TestTrimViewSharing(t *testing.T) {
	a := new(arena)
	a.begin(&Program{zeroBits: []uint64{0}})
	v := a.fromString("  ab  ")
	w := trim(v)
	if string(w.chars) != "ab" || w.off != v.off+2 {
		t.Fatalf("trim = %q off %d", string(w.chars), w.off)
	}
	if &w.chars[0] != &v.chars[2] {
		t.Fatal("trim copied instead of sharing the backing slab")
	}
	if !w.tainted(0) || !w.tainted(1) {
		t.Fatal("trim lost taint")
	}
}

// TestConcatDeepNesting guards the compiler's static stack sizing against
// deeply nested expressions.
func TestConcatDeepNesting(t *testing.T) {
	expr := "id"
	for i := 0; i < 30; i++ {
		expr = fmt.Sprintf("concat(%s, \"x\", upper(id))", expr)
	}
	src := "\nservice Deep\n  param id\n  sink sql " + expr + "\nend\n"
	svc := mustParse(t, src)
	eng := NewEngine()
	req := svclang.Request{"id": "a'b"}
	ref, err := svclang.Execute(svc, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ExecuteInSession(svc, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "deep concat", ref, got)
	if !strings.Contains(got.Events[0].Value.String(), "a'b") {
		t.Fatal("unexpected content")
	}
}

// TestInvalidCopiesKeepTheirNames: validation errors name their
// service, and only validated services are content-keyed, so two
// renamed copies of an invalid body each fail with their own name, in
// the program table and in the oracle cache alike.
func TestInvalidCopiesKeepTheirNames(t *testing.T) {
	body := []svclang.Stmt{svclang.Assign{Name: "nope", Expr: svclang.Lit{Value: "x"}}}
	eng := NewEngine()
	for _, name := range []string{"BadA", "BadB"} {
		svc := &svclang.Service{Name: name, Body: body}
		if _, err := eng.Program(svc, svc.Digest()); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Program(%s) = %v", name, err)
		}
		if _, err := eng.Analyze(svc, svc.Digest()); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Analyze(%s) = %v", name, err)
		}
	}
	if hits, misses := eng.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("stats = %d hits, %d misses; want no program looked up or compiled", hits, misses)
	}
}

// TestRenamedCopiesShareOneProgram: the program table compiles each
// distinct body once, and a one-token change is another body.
func TestRenamedCopiesShareOneProgram(t *testing.T) {
	eng := NewEngine()
	a := mustParse(t, vmTestSrc)
	b := *a
	b.Name = "Renamed"
	c := mustParse(t, strings.Replace(vmTestSrc, `"alpha"`, `"beta"`, 1))
	pa, err := eng.Program(a, a.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if pb, err := eng.Program(&b, b.Digest()); err != nil || pb != pa {
		t.Fatalf("renamed copy: program %p (%v), want the shared %p", pb, err, pa)
	}
	if pc, err := eng.Program(c, c.Digest()); err != nil || pc == pa {
		t.Fatalf("changed body: program %p (%v) shared with the original", pc, err)
	}
	if pa.Digest() != a.Digest() {
		t.Fatal("program digest differs from its service's")
	}
	if hits, misses := eng.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses; want 1/2", hits, misses)
	}
}

// TestNamelessCopyOfCompiledBodyFails: the digest leaves the name out,
// so the program table checks it per service: a nameless copy of a
// compiled body fails as the interpreter does, and is no lookup.
func TestNamelessCopyOfCompiledBodyFails(t *testing.T) {
	eng := NewEngine()
	svc := mustParse(t, vmTestSrc)
	if _, err := eng.Program(svc, svc.Digest()); err != nil {
		t.Fatal(err)
	}
	nameless := *svc
	nameless.Name = ""
	_, refErr := svclang.Execute(&nameless, svclang.Request{})
	if _, err := eng.Program(&nameless, nameless.Digest()); err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("nameless copy: Program = %v, interpreter = %v", err, refErr)
	}
	if hits, misses := eng.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0/1", hits, misses)
	}
}
