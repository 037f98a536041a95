package svclang

import (
	"strings"
	"testing"
)

// digestBase exercises every node kind the digest encodes.
const digestBase = `service Base
  param pa
  param pb
  var tmp
  tmp = concat("x", upper(pa))
  if contains(pb, "<")
    reject
  end
  if eq(pa, "admin")
    tmp = load("k")
  end
  repeat 2
    store "k" tmp
  end
  if matches(pb, digits)
    sink sql silent load("k")
  else
    sink html escape_html(pb)
  end
end
`

// TestDigestTracksEveryToken: a rename keeps the digest, and every
// one-token change of the body gives a digest of its own.
func TestDigestTracksEveryToken(t *testing.T) {
	parse := func(src string) *Service {
		t.Helper()
		svc, err := ParseOne(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return svc
	}
	base := parse(digestBase)
	if got := parse(strings.Replace(digestBase, "service Base", "service Renamed", 1)).Digest(); got != base.Digest() {
		t.Fatal("a rename changed the digest")
	}
	edits := []struct{ name, old, new string }{
		{"param name", "pb", "pc"},
		{"param order", "param pa\n  param pb", "param pb\n  param pa"},
		{"literal", `"x"`, `"y"`},
		{"contains needle", `"<"`, `">"`},
		{"eq value", `"admin"`, `"root"`},
		{"builtin", "upper(", "trim("},
		{"char class", "digits", "alnum"},
		{"sink kind", "sink html", "sink xpath"},
		{"silent flag", "sink sql silent", "sink sql"},
		{"repeat count", "repeat 2", "repeat 3"},
		{"store key", `store "k"`, `store "j"`},
		{"load key", `tmp = load("k")`, `tmp = load("j")`},
		{"not wrapper", "if contains(", "if not contains("},
		{"variable name", "tmp", "buf"},
	}
	seen := map[Digest]string{base.Digest(): "base"}
	for _, e := range edits {
		src := strings.ReplaceAll(digestBase, e.old, e.new)
		if src == digestBase {
			t.Fatalf("%s: the edit changes nothing", e.name)
		}
		d := parse(src).Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("%s: same digest as %s", e.name, prev)
		}
		seen[d] = e.name
	}
	// Sink IDs are positional in source, so change one on the AST.
	renumbered := parse(digestBase)
	ifStmt := renumbered.Body[len(renumbered.Body)-1].(If)
	sink := ifStmt.Else[0].(Sink)
	sink.ID = 9
	ifStmt.Else = []Stmt{sink}
	renumbered.Body[len(renumbered.Body)-1] = ifStmt
	if renumbered.Digest() == base.Digest() {
		t.Error("sink ID: the digest ignores it")
	}
	// Empty and absent else branches, and nil and empty lists, are one
	// body.
	if (&Service{Name: "A"}).Digest() != (&Service{Name: "B", Params: []string{}, Body: []Stmt{}}).Digest() {
		t.Error("nil and empty lists digest differently")
	}
}

// TestDigestOfInvalidASTs: malformed services — nil, nil and foreign
// nodes, unknown builtins and kinds, bad arities — digest without
// panicking, and the digest still leaves the name out.
func TestDigestOfInvalidASTs(t *testing.T) {
	type foreign struct{ Stmt }
	invalid := []*Service{
		nil,
		{Name: "Bad", Body: []Stmt{Assign{Name: "nope", Expr: Lit{Value: "x"}}}},
		{Name: "NilNodes", Body: []Stmt{nil, Assign{Name: "a"}, If{}, Sink{ID: 1}, Store{Key: "k"}}},
		{Name: "Foreign", Body: []Stmt{foreign{}, If{Cond: Not{}}}},
		{Name: "Calls", Params: []string{"a", "a"}, Body: []Stmt{
			Sink{ID: 1, Kind: SinkKind(99), Expr: Call{Fn: Builtin(42)}},
			Sink{ID: 1, Kind: SinkSQL, Expr: Call{Fn: BuiltinUpper}},
			Repeat{Count: -3},
		}},
	}
	seen := map[Digest]int{}
	for i, svc := range invalid {
		d := svc.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("invalid services %d and %d share a digest", prev, i)
		}
		seen[d] = i
		if svc != nil {
			renamed := *svc
			renamed.Name += "_copy"
			if renamed.Digest() != d {
				t.Errorf("invalid service %d: a rename changed the digest", i)
			}
		}
	}
}

// TestDigestAllocatesNothing: with its pooled buffer warm, a digest
// allocates nothing.
func TestDigestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	svc, err := ParseOne(digestBase)
	if err != nil {
		t.Fatal(err)
	}
	svc.Digest()
	if n := testing.AllocsPerRun(100, func() { svc.Digest() }); n != 0 {
		t.Fatalf("Digest allocates %.1f times per call", n)
	}
}
