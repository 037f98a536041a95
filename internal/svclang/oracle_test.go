package svclang

import (
	"testing"
)

// execSinkValue runs the service with one parameter set to val (other
// params empty) and returns the value reaching sink 0.
func execSinkValue(t *testing.T, src, param, val string) TString {
	t.Helper()
	svc := mustParse(t, src)
	res := mustExec(t, svc, Request{param: val})
	events := res.EventsFor(0)
	if len(events) == 0 {
		t.Fatalf("sink 0 not reached with %s=%q", param, val)
	}
	return events[0].Value
}

func TestStructuralTaintSQL(t *testing.T) {
	// Unescaped quoted splice: the classic payload terminates the string.
	v := execSinkValue(t, vulnSQLSrc, "id", "' OR '1'='1")
	if !StructuralTaint(SinkSQL, v) {
		t.Fatal("unescaped SQL splice should have structural taint under attack")
	}
	// Benign digits inside quotes: content only.
	v = execSinkValue(t, vulnSQLSrc, "id", "42")
	if StructuralTaint(SinkSQL, v) {
		t.Fatal("benign digits should not be structural")
	}
	// Benign word inside quotes: still content.
	v = execSinkValue(t, vulnSQLSrc, "id", "alice")
	if StructuralTaint(SinkSQL, v) {
		t.Fatal("benign word inside string literal should not be structural")
	}
}

const escapedSQLSrc = `
service SafeUser
  param id
  var q
  q = concat("SELECT * FROM users WHERE id='", escape_sql(id), "'")
  sink sql q
end
`

func TestStructuralTaintSQLEscaped(t *testing.T) {
	for _, payload := range AttackPayloads(SinkSQL) {
		v := execSinkValue(t, escapedSQLSrc, "id", payload)
		if StructuralTaint(SinkSQL, v) {
			t.Fatalf("escape_sql defeated by payload %q (value %q)", payload, v.String())
		}
	}
}

const numericSQLSrc = `
service NumUser
  param id
  var q
  q = concat("SELECT * FROM users WHERE id=", numeric(id))
  sink sql q
end
`

func TestStructuralTaintSQLNumericSplice(t *testing.T) {
	// Unquoted numeric splice without numeric(): structural.
	raw := `
service RawNum
  param id
  sink sql concat("SELECT x WHERE id=", id)
end
`
	v := execSinkValue(t, raw, "id", "1 OR 1=1")
	if !StructuralTaint(SinkSQL, v) {
		t.Fatal("raw numeric splice should be injectable")
	}
	// With numeric() the payload collapses to digits.
	v = execSinkValue(t, numericSQLSrc, "id", "1 OR 1=1")
	if StructuralTaint(SinkSQL, v) {
		t.Fatal("numeric() should make the splice safe")
	}
}

func TestStructuralTaintWrongSanitizer(t *testing.T) {
	// escape_shell on a SQL sink: the backslash means nothing to SQL, so
	// the quote still terminates the string literal.
	src := `
service Wrong
  param id
  sink sql concat("Q='", escape_shell(id), "'")
end
`
	v := execSinkValue(t, src, "id", "' OR '1'='1")
	if !StructuralTaint(SinkSQL, v) {
		t.Fatal("escape_shell must NOT protect a SQL sink")
	}
}

func TestStructuralTaintAccidentalProtection(t *testing.T) {
	// escape_html encodes the quote, so a *quoted* SQL splice is
	// incidentally protected — the well-known accidental-sanitizer effect
	// the adequacy matrix documents.
	src := `
service Accidental
  param id
  sink sql concat("Q='", escape_html(id), "'")
end
`
	for _, payload := range AttackPayloads(SinkSQL) {
		v := execSinkValue(t, src, "id", payload)
		if StructuralTaint(SinkSQL, v) {
			t.Fatalf("quoted SQL splice behind escape_html should resist %q", payload)
		}
	}
}

func TestStructuralTaintXPath(t *testing.T) {
	src := `
service X
  param u
  sink xpath concat("//user[name='", u, "']")
end
`
	v := execSinkValue(t, src, "u", "' or '1'='1")
	if !StructuralTaint(SinkXPath, v) {
		t.Fatal("XPath splice should be injectable")
	}
	safe := `
service X2
  param u
  sink xpath concat("//user[name='", escape_xpath(u), "']")
end
`
	for _, payload := range AttackPayloads(SinkXPath) {
		v := execSinkValue(t, safe, "u", payload)
		if StructuralTaint(SinkXPath, v) {
			t.Fatalf("escape_xpath defeated by %q", payload)
		}
	}
}

func TestStructuralTaintHTML(t *testing.T) {
	src := `
service H
  param msg
  sink html concat("<p>", msg, "</p>")
end
`
	v := execSinkValue(t, src, "msg", "<script>alert(1)</script>")
	if !StructuralTaint(SinkHTML, v) {
		t.Fatal("raw HTML splice should be injectable")
	}
	v = execSinkValue(t, src, "msg", "hello world")
	if StructuralTaint(SinkHTML, v) {
		t.Fatal("plain text is not XSS")
	}
	safe := `
service H2
  param msg
  sink html concat("<p>", escape_html(msg), "</p>")
end
`
	for _, payload := range AttackPayloads(SinkHTML) {
		v := execSinkValue(t, safe, "msg", payload)
		if StructuralTaint(SinkHTML, v) {
			t.Fatalf("escape_html defeated by %q", payload)
		}
	}
}

func TestStructuralTaintCmd(t *testing.T) {
	src := `
service C
  param f
  sink cmd concat("cat ", f)
end
`
	v := execSinkValue(t, src, "f", "; cat /etc/passwd")
	if !StructuralTaint(SinkCmd, v) {
		t.Fatal("raw cmd splice should be injectable")
	}
	v = execSinkValue(t, src, "f", "report1")
	if StructuralTaint(SinkCmd, v) {
		t.Fatal("plain filename is not command injection")
	}
	safe := `
service C2
  param f
  sink cmd concat("cat ", escape_shell(f))
end
`
	for _, payload := range AttackPayloads(SinkCmd) {
		v := execSinkValue(t, safe, "f", payload)
		if StructuralTaint(SinkCmd, v) {
			t.Fatalf("escape_shell defeated by %q", payload)
		}
	}
}

func TestStructuralTaintPath(t *testing.T) {
	src := `
service P
  param f
  sink path f
end
`
	for _, payload := range AttackPayloads(SinkPath) {
		v := execSinkValue(t, src, "f", payload)
		if !StructuralTaint(SinkPath, v) {
			t.Fatalf("raw path splice should be injectable with %q", payload)
		}
	}
	v := execSinkValue(t, src, "f", "report.txt")
	if StructuralTaint(SinkPath, v) {
		t.Fatal("single dot in filename is not traversal")
	}
	safe := `
service P2
  param f
  sink path sanitize_path(f)
end
`
	for _, payload := range AttackPayloads(SinkPath) {
		v := execSinkValue(t, safe, "f", payload)
		if StructuralTaint(SinkPath, v) {
			t.Fatalf("sanitize_path defeated by %q", payload)
		}
	}
}

func TestAdequacyMatrixMatchesOracle(t *testing.T) {
	// Cross-validation: Builtin.Sanitizes must agree with the structural
	// taint oracle for every sanitizer × sink kind combination.
	sanitizers := []Builtin{BuiltinEscapeSQL, BuiltinEscapeXPath, BuiltinEscapeHTML, BuiltinEscapeShell, BuiltinSanitizePath, BuiltinNumeric}
	templates := map[SinkKind]struct {
		prefix, suffix string
	}{
		SinkSQL:   {"SELECT x WHERE a='", "'"},
		SinkXPath: {"//a[b='", "']"},
		SinkHTML:  {"<p>", "</p>"},
		SinkCmd:   {"cat ", ""},
		SinkPath:  {"", ""},
	}
	for _, san := range sanitizers {
		for _, kind := range AllSinkKinds() {
			tpl := templates[kind]
			svc := &Service{
				Name:   "Adequacy",
				Params: []string{"x"},
				Body: []Stmt{
					Sink{ID: 0, Kind: kind, Expr: Call{Fn: BuiltinConcat, Args: []Expr{
						Lit{Value: tpl.prefix},
						Call{Fn: san, Args: []Expr{Ident{Name: "x"}}},
						Lit{Value: tpl.suffix},
					}}},
				},
			}
			anyInjectable := false
			for _, payload := range AttackPayloads(kind) {
				res, err := Execute(svc, Request{"x": payload})
				if err != nil {
					t.Fatalf("%s on %s: %v", san, kind, err)
				}
				if StructuralTaint(kind, res.Events[0].Value) {
					anyInjectable = true
				}
			}
			if san.Sanitizes(kind) && anyInjectable {
				t.Errorf("%s claims to sanitize %s but a payload got through", san, kind)
			}
			if !san.Sanitizes(kind) && !anyInjectable {
				t.Errorf("%s does not claim to sanitize %s yet every payload was neutralised", san, kind)
			}
		}
	}
}

func TestStructureSQL(t *testing.T) {
	got := Structure(SinkSQL, "SELECT * FROM t WHERE id='abc' AND n=42")
	want := []string{"w", "*", "w", "w", "w", "w", "=", "str", "w", "w", "=", "n"}
	if !StructureEqual(got, want) {
		t.Fatalf("sql structure = %v, want %v", got, want)
	}
	// Escaped quote stays inside the string.
	got = Structure(SinkSQL, "X='a''b'")
	want = []string{"w", "=", "str"}
	if !StructureEqual(got, want) {
		t.Fatalf("escaped-quote structure = %v, want %v", got, want)
	}
	// Unterminated string becomes ERR.
	got = Structure(SinkSQL, "X='abc")
	want = []string{"w", "=", "ERR"}
	if !StructureEqual(got, want) {
		t.Fatalf("unterminated structure = %v, want %v", got, want)
	}
}

func TestStructureXPathDoubleQuotes(t *testing.T) {
	got := Structure(SinkXPath, `//a[b="x"]`)
	want := []string{"/", "/", "w", "[", "w", "=", "str", "]"}
	if !StructureEqual(got, want) {
		t.Fatalf("xpath structure = %v, want %v", got, want)
	}
}

func TestStructureHTML(t *testing.T) {
	got := Structure(SinkHTML, `<p>hi &lt;b&gt;</p><IMG src=x>`)
	want := []string{"p", "p", "img"}
	if !StructureEqual(got, want) {
		t.Fatalf("html structure = %v, want %v", got, want)
	}
	// '<' before non-letter is text; unterminated tag is text.
	got = Structure(SinkHTML, "a < b <i unterminated")
	if len(got) != 0 {
		t.Fatalf("text-only structure = %v, want empty", got)
	}
}

func TestStructureCmd(t *testing.T) {
	got := Structure(SinkCmd, `cat file1`)
	want := []string{"a", "a"}
	if !StructureEqual(got, want) {
		t.Fatalf("cmd structure = %v, want %v", got, want)
	}
	got = Structure(SinkCmd, `cat x; rm -rf /`)
	want = []string{"a", "a", ";", "a", "a", "a"}
	if !StructureEqual(got, want) {
		t.Fatalf("cmd attack structure = %v, want %v", got, want)
	}
	// Escaped metachar merges into the word.
	got = Structure(SinkCmd, `cat a\;b`)
	want = []string{"a", "a"}
	if !StructureEqual(got, want) {
		t.Fatalf("escaped cmd structure = %v, want %v", got, want)
	}
	// Unterminated quote is an error token.
	got = Structure(SinkCmd, `cat "abc`)
	want = []string{"a", "ERR"}
	if !StructureEqual(got, want) {
		t.Fatalf("unterminated quote structure = %v, want %v", got, want)
	}
}

func TestStructurePath(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"report.txt", "inside"},
		{"sub/dir/file", "inside"},
		{"a/../b", "inside"},
		{"../../etc/passwd", "escape"},
		{"/etc/shadow", "escape"},
		{"..\\..\\windows", "escape"},
		{"..", "escape"}, // resolves to /srv, outside /srv/data... actually to /srv
	}
	for _, c := range cases {
		got := Structure(SinkPath, c.in)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("path structure(%q) = %v, want [%s]", c.in, got, c.want)
		}
	}
}

func TestStructureEqual(t *testing.T) {
	if !StructureEqual(nil, nil) || !StructureEqual([]string{"a"}, []string{"a"}) {
		t.Fatal("equality false negative")
	}
	if StructureEqual([]string{"a"}, []string{"b"}) || StructureEqual([]string{"a"}, []string{"a", "b"}) {
		t.Fatal("equality false positive")
	}
}

func TestAnalyzeVulnerableService(t *testing.T) {
	svc := mustParse(t, vulnSQLSrc)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if len(truths) != 1 {
		t.Fatalf("truths = %d", len(truths))
	}
	if !truths[0].Vulnerable {
		t.Fatal("unescaped SQL splice should be labelled vulnerable")
	}
	if truths[0].Witness == nil {
		t.Fatal("vulnerable label needs a witness")
	}
	// The witness must actually demonstrate the vulnerability.
	res := mustExec(t, svc, truths[0].Witness)
	found := false
	for _, ev := range res.EventsFor(0) {
		if StructuralTaint(ev.Kind, ev.Value) {
			found = true
		}
	}
	if !found {
		t.Fatalf("witness %v does not reproduce the vulnerability", truths[0].Witness)
	}
}

func TestAnalyzeSafeService(t *testing.T) {
	for _, src := range []string{escapedSQLSrc, numericSQLSrc} {
		svc := mustParse(t, src)
		truths, err := AnalyzeProbing(svc, interpProbe)
		if err != nil {
			t.Fatal(err)
		}
		if truths[0].Vulnerable {
			t.Fatalf("%s: sanitized sink labelled vulnerable", svc.Name)
		}
	}
}

func TestAnalyzeValidatedService(t *testing.T) {
	// Digits-only validation makes the quoted splice safe: every payload
	// is rejected before the sink.
	svc := mustParse(t, `
service V
  param id
  if not matches(id, digits)
    reject
  end
  sink sql concat("Q='", id, "'")
end
`)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if truths[0].Vulnerable {
		t.Fatal("digit-validated splice should be safe")
	}
}

func TestAnalyzeGuardedSink(t *testing.T) {
	// The vulnerable sink is only reachable when a second parameter has a
	// specific value; the oracle must still find it via the cross product.
	svc := mustParse(t, `
service G
  param id
  param mode
  if eq(mode, "alpha")
    sink sql concat("Q='", id, "'")
  end
end
`)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !truths[0].Vulnerable {
		t.Fatal("oracle failed to find the guarded vulnerable sink ('alpha' is in the benign pool)")
	}
	if truths[0].Witness["mode"] != "alpha" {
		t.Fatalf("witness should set mode=alpha: %v", truths[0].Witness)
	}
}

func TestAnalyzeDeadSink(t *testing.T) {
	// Statically unreachable sink: never executed, hence not vulnerable.
	svc := mustParse(t, `
service D
  param id
  if false
    sink sql concat("Q='", id, "'")
  end
  sink sql "SELECT 1"
end
`)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if truths[0].Vulnerable {
		t.Fatal("dead sink cannot be vulnerable")
	}
	if truths[1].Vulnerable {
		t.Fatal("constant sink cannot be vulnerable")
	}
}

func TestAnalyzeSecondOrderFlow(t *testing.T) {
	// Taint flows through an intermediate variable and a loop.
	svc := mustParse(t, `
service L
  param x
  var acc
  repeat 2
    acc = concat(acc, x)
  end
  sink sql concat("Q='", acc, "'")
end
`)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !truths[0].Vulnerable {
		t.Fatal("loop-accumulated taint should reach the sink")
	}
}

func TestAnalyzeTooManyParams(t *testing.T) {
	svc := &Service{Name: "Big", Params: []string{"a", "b", "c", "d"}}
	if _, err := AnalyzeProbing(svc, interpProbe); err == nil {
		t.Fatal("oracle must refuse services beyond its exhaustiveness limit")
	}
}

func TestAnalyzeNilAndInvalid(t *testing.T) {
	if _, err := AnalyzeProbing(nil, interpProbe); err == nil {
		t.Fatal("nil service accepted")
	}
	bad := &Service{Name: "B", Body: []Stmt{Assign{Name: "nope", Expr: Lit{}}}}
	if _, err := AnalyzeProbing(bad, interpProbe); err == nil {
		t.Fatal("invalid service accepted")
	}
}

func TestAnalyzeNoSinks(t *testing.T) {
	svc := mustParse(t, `
service None
  param x
  var y
  y = x
end
`)
	truths, err := AnalyzeProbing(svc, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if len(truths) != 0 {
		t.Fatalf("no sinks should yield no truths, got %d", len(truths))
	}
}

func TestAttackPayloadsNonEmpty(t *testing.T) {
	for _, k := range AllSinkKinds() {
		if len(AttackPayloads(k)) == 0 {
			t.Errorf("no payloads for %s", k)
		}
	}
	if AttackPayloads(SinkKind(99)) != nil {
		t.Error("unknown kind should have no payloads")
	}
	if len(BenignValues()) == 0 {
		t.Error("benign pool empty")
	}
}

const storedXSSSrc = `
service Guestbook
  param msg
  sink html concat("<ul>", load("entries"), "</ul>")
  store "entries" concat(load("entries"), "<li>", msg, "</li>")
end
`

const storedXSSSafeSrc = `
service GuestbookSafe
  param msg
  sink html concat("<ul>", load("entries"), "</ul>")
  store "entries" concat(load("entries"), "<li>", escape_html(msg), "</li>")
end
`

func TestExecuteInSessionPersistsStore(t *testing.T) {
	svc := mustParse(t, storedXSSSrc)
	store := NewSessionStore()
	res1, err := ExecuteInSession(svc, Request{"msg": "hello"}, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Events[0].Value.String(); got != "<ul></ul>" {
		t.Fatalf("first render = %q", got)
	}
	res2, err := ExecuteInSession(svc, Request{"msg": "again"}, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Events[0].Value.String(); got != "<ul><li>hello</li></ul>" {
		t.Fatalf("second render = %q", got)
	}
	if store.Keys() != 1 {
		t.Fatalf("store keys = %d", store.Keys())
	}
}

func TestExecuteFreshStorePerCall(t *testing.T) {
	svc := mustParse(t, storedXSSSrc)
	if _, err := Execute(svc, Request{"msg": "x"}); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(svc, Request{"msg": "y"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Events[0].Value.String(); got != "<ul></ul>" {
		t.Fatalf("stateless Execute leaked state: %q", got)
	}
}

func TestStoredTaintSurvivesSession(t *testing.T) {
	svc := mustParse(t, storedXSSSrc)
	store := NewSessionStore()
	if _, err := ExecuteInSession(svc, Request{"msg": "<script>x</script>"}, store); err != nil {
		t.Fatal(err)
	}
	res2, err := ExecuteInSession(svc, Request{"msg": "benign"}, store)
	if err != nil {
		t.Fatal(err)
	}
	if !StructuralTaint(SinkHTML, res2.Events[0].Value) {
		t.Fatal("stored payload should carry structural taint into the second request")
	}
}

func TestAnalyzeStoredXSS(t *testing.T) {
	vuln := mustParse(t, storedXSSSrc)
	truths, err := AnalyzeProbing(vuln, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !truths[0].Vulnerable {
		t.Fatal("stored XSS should be labelled vulnerable")
	}
	if len(truths[0].Sequence) != 2 {
		t.Fatalf("stored XSS needs a two-request witness, got %d", len(truths[0].Sequence))
	}
	// The witness sequence must actually reproduce the finding.
	store := NewSessionStore()
	var hit bool
	for _, req := range truths[0].Sequence {
		res, err := ExecuteInSession(vuln, req, store)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.EventsFor(0) {
			if StructuralTaint(ev.Kind, ev.Value) {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatalf("witness sequence %v does not reproduce", truths[0].Sequence)
	}

	safe := mustParse(t, storedXSSSafeSrc)
	safeTruths, err := AnalyzeProbing(safe, interpProbe)
	if err != nil {
		t.Fatal(err)
	}
	if safeTruths[0].Vulnerable {
		t.Fatal("escaped stored flow should be safe")
	}
}

func TestAnalyzeStatefulParamLimit(t *testing.T) {
	svc := mustParse(t, `
service TooWide
  param a
  param b
  sink html load("k")
  store "k" concat(a, b)
end
`)
	if _, err := AnalyzeProbing(svc, interpProbe); err == nil {
		t.Fatal("stateful service with 2 params must exceed the sequence-labelling limit")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	svc := mustParse(t, storedXSSSrc)
	printed := Print(svc)
	again, err := ParseOne(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if !again.UsesStore() {
		t.Fatal("UsesStore lost in round trip")
	}
	if Print(again) != printed {
		t.Fatal("print not stable across round trip")
	}
}

func TestUsesStore(t *testing.T) {
	if mustParse(t, vulnSQLSrc).UsesStore() {
		t.Fatal("stateless service reports store use")
	}
	if !mustParse(t, storedXSSSrc).UsesStore() {
		t.Fatal("stateful service not detected")
	}
	loadOnly := mustParse(t, `
service L
  param a
  sink html load("k")
end
`)
	if !loadOnly.UsesStore() {
		t.Fatal("load-only service not detected")
	}
}

func TestValidateStoreErrors(t *testing.T) {
	bad := &Service{Name: "B", Params: []string{"a"}, Body: []Stmt{
		Store{Key: "", Expr: Ident{Name: "a"}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty store key accepted")
	}
	bad2 := &Service{Name: "B2", Params: []string{"a"}, Body: []Stmt{
		Sink{ID: 0, Kind: SinkHTML, Expr: LoadExpr{Key: ""}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty load key accepted")
	}
	bad3 := &Service{Name: "B3", Body: []Stmt{
		Store{Key: "k", Expr: Ident{Name: "ghost"}},
	}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("undeclared name in store expr accepted")
	}
}
