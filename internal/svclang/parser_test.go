package svclang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseSimpleService(t *testing.T) {
	svc := mustParse(t, vulnSQLSrc)
	if svc.Name != "GetUser" {
		t.Fatalf("name = %q", svc.Name)
	}
	if len(svc.Params) != 1 || svc.Params[0] != "id" {
		t.Fatalf("params = %v", svc.Params)
	}
	sinks := svc.Sinks()
	if len(sinks) != 1 || sinks[0].Kind != SinkSQL || sinks[0].ID != 0 {
		t.Fatalf("sinks = %+v", sinks)
	}
}

func TestParseMultipleServices(t *testing.T) {
	src := vulnSQLSrc + "\n" + escapedSQLSrc
	services, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(services) != 2 {
		t.Fatalf("parsed %d services", len(services))
	}
	if services[1].Name != "SafeUser" {
		t.Fatalf("second service = %q", services[1].Name)
	}
}

func TestParseOneRejectsMultiple(t *testing.T) {
	if _, err := ParseOne(vulnSQLSrc + escapedSQLSrc); err == nil {
		t.Fatal("ParseOne accepted two services")
	}
}

func TestParseSinkIDsSequential(t *testing.T) {
	svc := mustParse(t, `
service Multi
  param a
  sink sql a
  if true
    sink html a
  end
  repeat 2
    sink cmd a
  end
end
`)
	sinks := svc.Sinks()
	if len(sinks) != 3 {
		t.Fatalf("sinks = %d", len(sinks))
	}
	for i, sk := range sinks {
		if sk.ID != i {
			t.Fatalf("sink %d has ID %d", i, sk.ID)
		}
	}
}

func TestParseComments(t *testing.T) {
	svc := mustParse(t, `
# corpus header comment
service C  # trailing comment
  param x  # the input
  sink html x
end
`)
	if svc.Name != "C" || len(svc.Sinks()) != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no end", "service X\n  param a\n"},
		{"param after stmt", "service X\n  var v\n  param a\nend\n"},
		{"unknown sink kind", "service X\n  param a\n  sink ldap a\nend\n"},
		{"unknown builtin", "service X\n  param a\n  sink sql frobnicate(a)\nend\n"},
		{"bad escape", "service X\n  param a\n  sink sql \"\\q\"\nend\n"},
		{"unterminated string", "service X\n  param a\n  sink sql \"abc\nend\n"},
		{"undeclared var", "service X\n  q = \"hi\"\nend\n"},
		{"duplicate param", "service X\n  param a\n  param a\nend\n"},
		{"unknown class", "service X\n  param a\n  if matches(a, hex)\n    reject\n  end\nend\n"},
		{"unknown condition", "service X\n  param a\n  if startswith(a, \"x\")\n    reject\n  end\nend\n"},
		{"repeat too big", "service X\n  param a\n  repeat 99\n    sink sql a\n  end\nend\n"},
		{"missing assign rhs", "service X\n  var v\n  v =\nend\n"},
		{"garbage char", "service X\n  param a@b\nend\n"},
		{"newline in string", "service X\n  sink sql \"a\nb\"\nend\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: parse accepted invalid input", c.name)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		vulnSQLSrc,
		escapedSQLSrc,
		`
service Everything
  param a
  param b
  var q
  if not matches(a, digits)
    reject
  end
  if contains(b, "x,\"y\"")
    q = concat("L'", escape_sql(a), "'")
  else
    q = upper(trim(b))
  end
  repeat 3
    q = concat(q, numeric(b))
  end
  sink sql silent q
  sink xpath escape_xpath(a)
  sink html escape_html(b)
  sink cmd escape_shell(a)
  sink path sanitize_path(b)
end
`,
	}
	for _, src := range srcs {
		orig := mustParse(t, src)
		printed := Print(orig)
		reparsed, err := ParseOne(printed)
		if err != nil {
			t.Fatalf("reparse of printed form failed: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(orig, reparsed) {
			t.Fatalf("round trip changed the AST\noriginal: %#v\nreparsed: %#v\nprinted:\n%s", orig, reparsed, printed)
		}
	}
}

func TestPrintEscapesLiterals(t *testing.T) {
	svc := &Service{
		Name:   "Esc",
		Params: []string{"x"},
		Body: []Stmt{
			Sink{ID: 0, Kind: SinkHTML, Expr: Lit{Value: "a\"b\\c\nd\te"}},
		},
	}
	printed := Print(svc)
	reparsed, err := ParseOne(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	lit, ok := reparsed.Sinks()[0].Expr.(Lit)
	if !ok || lit.Value != "a\"b\\c\nd\te" {
		t.Fatalf("literal round trip = %#v", reparsed.Sinks()[0].Expr)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("service X\n  sink sql %\nend\n")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 || !strings.Contains(se.Error(), "line 2") {
		t.Fatalf("error = %v", se)
	}
}

func TestValidateCatchesStructuralIssues(t *testing.T) {
	cases := []struct {
		name string
		svc  *Service
	}{
		{"no name", &Service{}},
		{"dup sink IDs", &Service{Name: "S", Params: []string{"a"}, Body: []Stmt{
			Sink{ID: 0, Kind: SinkSQL, Expr: Ident{Name: "a"}},
			Sink{ID: 0, Kind: SinkSQL, Expr: Ident{Name: "a"}},
		}}},
		{"bad repeat", &Service{Name: "S", Body: []Stmt{Repeat{Count: 0}}}},
		{"nil expr", &Service{Name: "S", Body: []Stmt{Sink{ID: 0, Kind: SinkSQL, Expr: nil}}}},
		{"nil cond", &Service{Name: "S", Body: []Stmt{If{Cond: nil}}}},
		{"nil stmt", &Service{Name: "S", Body: []Stmt{nil}}},
		{"bad arity", &Service{Name: "S", Params: []string{"a"}, Body: []Stmt{
			Sink{ID: 0, Kind: SinkSQL, Expr: Call{Fn: BuiltinNumeric, Args: []Expr{Ident{Name: "a"}, Ident{Name: "a"}}}},
		}}},
		{"empty concat", &Service{Name: "S", Body: []Stmt{
			Sink{ID: 0, Kind: SinkSQL, Expr: Call{Fn: BuiltinConcat}},
		}}},
		{"bad sink kind", &Service{Name: "S", Params: []string{"a"}, Body: []Stmt{
			Sink{ID: 0, Kind: SinkKind(42), Expr: Ident{Name: "a"}},
		}}},
		{"dup var", &Service{Name: "S", Body: []Stmt{VarDecl{Name: "v"}, VarDecl{Name: "v"}}}},
	}
	for _, c := range cases {
		if err := c.svc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid service", c.name)
		}
	}
}

// TestValidateUnknownBuiltinText pins the error for a builtin outside
// the known set, byte for byte, on both sides of the range, and that
// every known builtin passes.
func TestValidateUnknownBuiltinText(t *testing.T) {
	call := func(fn Builtin) *Service {
		return &Service{Name: "S", Params: []string{"a"}, Body: []Stmt{
			Sink{ID: 0, Kind: SinkSQL, Expr: Call{Fn: fn, Args: []Expr{Ident{Name: "a"}}}},
		}}
	}
	for _, fn := range []Builtin{-1, 0, BuiltinTrim + 1, 42} {
		want := fmt.Sprintf("svclang: S: unknown builtin %d", int(fn))
		if err := call(fn).Validate(); err == nil || err.Error() != want {
			t.Errorf("builtin %d: Validate = %v, want %q", int(fn), err, want)
		}
	}
	for fn := BuiltinConcat; fn <= BuiltinTrim; fn++ {
		if err := call(fn).Validate(); err != nil {
			t.Errorf("%s: Validate = %v", fn, err)
		}
	}
}

func TestKindAndBuiltinStringRoundTrips(t *testing.T) {
	for _, k := range AllSinkKinds() {
		got, ok := SinkKindFromString(k.String())
		if !ok || got != k {
			t.Errorf("sink kind %v does not round trip", k)
		}
		if k.CWE() == "CWE-?" {
			t.Errorf("sink kind %v has no CWE", k)
		}
	}
	for b := BuiltinConcat; b <= BuiltinTrim; b++ {
		got, ok := BuiltinFromString(b.String())
		if !ok || got != b {
			t.Errorf("builtin %v does not round trip", b)
		}
	}
	if _, ok := SinkKindFromString("nope"); ok {
		t.Error("bogus sink kind resolved")
	}
	if _, ok := BuiltinFromString("nope"); ok {
		t.Error("bogus builtin resolved")
	}
	if _, ok := CharClassFromString("digits"); !ok {
		t.Error("digits class should resolve")
	}
}

func TestMatchesClass(t *testing.T) {
	cases := []struct {
		class CharClass
		s     string
		want  bool
	}{
		{ClassDigits, "0123", true},
		{ClassDigits, "12a", false},
		{ClassDigits, "", true},
		{ClassAlpha, "AbZ", true},
		{ClassAlpha, "a1", false},
		{ClassAlnum, "a1B2", true},
		{ClassAlnum, "a_1", false},
	}
	for _, c := range cases {
		if got := c.class.MatchesClass(c.s); got != c.want {
			t.Errorf("%v.MatchesClass(%q) = %v", c.class, c.s, got)
		}
	}
}
