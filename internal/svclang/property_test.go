package svclang

import (
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
)

// randomService generates a structurally valid random service: the
// generator tracks declared names so every reference resolves, bounds
// nesting, and assigns sink IDs positionally (as the parser does) so that
// Print/Parse round trips can compare ASTs directly.
type serviceGen struct {
	rng    *stats.RNG
	names  []string
	sinkID int
	depth  int
	// allowStore enables store/load generation; the exhaustive oracle
	// limits stateful services to one parameter, so the generator only
	// sets it for single-parameter services.
	allowStore bool
}

func (g *serviceGen) pickName() string {
	return g.names[g.rng.Intn(len(g.names))]
}

func (g *serviceGen) expr(depth int) Expr {
	if depth <= 0 {
		if g.rng.Bernoulli(0.5) {
			return Lit{Value: g.randLit()}
		}
		return Ident{Name: g.pickName()}
	}
	if g.allowStore && g.rng.Bernoulli(0.15) {
		return LoadExpr{Key: g.storeKey()}
	}
	switch g.rng.Intn(4) {
	case 0:
		return Lit{Value: g.randLit()}
	case 1:
		return Ident{Name: g.pickName()}
	case 2:
		n := 1 + g.rng.Intn(3)
		args := make([]Expr, n)
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return Call{Fn: BuiltinConcat, Args: args}
	default:
		fns := []Builtin{
			BuiltinEscapeSQL, BuiltinEscapeXPath, BuiltinEscapeHTML,
			BuiltinEscapeShell, BuiltinSanitizePath, BuiltinNumeric,
			BuiltinUpper, BuiltinTrim,
		}
		return Call{Fn: fns[g.rng.Intn(len(fns))], Args: []Expr{g.expr(depth - 1)}}
	}
}

// randLit draws a literal from an alphabet that exercises quoting,
// escaping, metacharacters and unicode.
func (g *serviceGen) randLit() string {
	alphabet := []string{
		"a", "Z", "7", " ", "'", "\"", "<", ">", ";", "|", "&", "/", "\\",
		".", ",", "=", "(", ")", "-", "_", "\n", "\t", "é", "日",
		"SELECT", "OR", "script",
	}
	n := g.rng.Intn(8)
	out := ""
	for i := 0; i < n; i++ {
		out += alphabet[g.rng.Intn(len(alphabet))]
	}
	return out
}

// storeKey draws one of a small set of store keys so that stores and
// loads actually meet.
func (g *serviceGen) storeKey() string {
	keys := []string{"note", "cart", "last"}
	return keys[g.rng.Intn(len(keys))]
}

func (g *serviceGen) cond(depth int) Cond {
	switch g.rng.Intn(5) {
	case 0:
		classes := []CharClass{ClassDigits, ClassAlpha, ClassAlnum}
		return Match{Expr: g.expr(1), Class: classes[g.rng.Intn(len(classes))]}
	case 1:
		return Contains{Expr: g.expr(1), Needle: g.randLit()}
	case 2:
		return Eq{Expr: g.expr(1), Value: g.randLit()}
	case 3:
		if depth > 0 {
			return Not{Inner: g.cond(depth - 1)}
		}
		return BoolLit{Value: g.rng.Bernoulli(0.5)}
	default:
		return BoolLit{Value: g.rng.Bernoulli(0.5)}
	}
}

func (g *serviceGen) stmts(depth, maxLen int) []Stmt {
	n := g.rng.Intn(maxLen + 1)
	var out []Stmt
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *serviceGen) stmt(depth int) Stmt {
	choice := g.rng.Intn(6)
	if depth <= 0 && (choice == 2 || choice == 3) {
		choice = 1
	}
	switch choice {
	case 0:
		// New variable declaration (fresh name).
		name := "v" + string(rune('a'+len(g.names)%26)) + string(rune('0'+len(g.names)/26%10))
		for _, existing := range g.names {
			if existing == name {
				return Assign{Name: g.pickName(), Expr: g.expr(2)}
			}
		}
		g.names = append(g.names, name)
		return VarDecl{Name: name}
	case 1:
		return Assign{Name: g.pickName(), Expr: g.expr(2)}
	case 2:
		return If{
			Cond: g.cond(depth - 1),
			Then: g.stmts(depth-1, 3),
			Else: g.stmts(depth-1, 2),
		}
	case 3:
		return Repeat{Count: 1 + g.rng.Intn(4), Body: g.stmts(depth-1, 2)}
	case 4:
		kinds := AllSinkKinds()
		sk := Sink{
			ID:     g.sinkID,
			Kind:   kinds[g.rng.Intn(len(kinds))],
			Expr:   g.expr(2),
			Silent: g.rng.Bernoulli(0.2),
		}
		g.sinkID++
		return sk
	default:
		if g.allowStore && g.rng.Bernoulli(0.5) {
			return Store{Key: g.storeKey(), Expr: g.expr(2)}
		}
		return Reject{}
	}
}

// randomService builds one structurally valid service with 1-3 params.
func randomService(seed uint64) *Service {
	rng := stats.NewRNG(seed)
	g := &serviceGen{rng: rng}
	nParams := 1 + rng.Intn(3)
	svc := &Service{Name: "Rand"}
	g.allowStore = nParams == 1
	for i := 0; i < nParams; i++ {
		p := "p" + string(rune('0'+i))
		svc.Params = append(svc.Params, p)
		g.names = append(g.names, p)
	}
	svc.Body = g.stmts(3, 6)
	// Guarantee at least one sink so the oracle has something to label.
	kinds := AllSinkKinds()
	svc.Body = append(svc.Body, Sink{
		ID:   g.sinkID,
		Kind: kinds[rng.Intn(len(kinds))],
		Expr: g.expr(2),
	})
	return svc
}

// reassignSinkIDs renumbers sink IDs positionally; the random generator
// assigns them in creation order, which may differ from source order when
// blocks nest, so normalise before comparing against the parser.
func reassignSinkIDs(svc *Service) {
	id := 0
	var walk func(list []Stmt)
	walk = func(list []Stmt) {
		for i, st := range list {
			switch v := st.(type) {
			case Sink:
				v.ID = id
				id++
				list[i] = v
			case If:
				walk(v.Then)
				walk(v.Else)
			case Repeat:
				walk(v.Body)
			}
		}
	}
	walk(svc.Body)
}

const propertyTrials = 150

func TestRandomServicesAreValid(t *testing.T) {
	for seed := uint64(0); seed < propertyTrials; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		if err := svc.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid service: %v\n%s", seed, err, Print(svc))
		}
	}
}

func TestRandomServicePrintParseRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < propertyTrials; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		printed := Print(svc)
		reparsed, err := ParseOne(printed)
		if err != nil {
			t.Fatalf("seed %d: printed form does not parse: %v\n%s", seed, err, printed)
		}
		// Normalise empty-slice vs nil differences introduced by printing.
		if !equivalentServices(svc, reparsed) {
			t.Fatalf("seed %d: round trip changed the AST\nprinted:\n%s\noriginal: %#v\nreparsed: %#v",
				seed, printed, svc, reparsed)
		}
	}
}

// equivalentServices compares services modulo nil-vs-empty slices.
func equivalentServices(a, b *Service) bool {
	return a.Name == b.Name &&
		reflect.DeepEqual(normalizeParams(a.Params), normalizeParams(b.Params)) &&
		reflect.DeepEqual(normalizeStmts(a.Body), normalizeStmts(b.Body))
}

func normalizeParams(ps []string) []string {
	if len(ps) == 0 {
		return nil
	}
	return ps
}

func normalizeStmts(list []Stmt) []Stmt {
	if len(list) == 0 {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, st := range list {
		switch v := st.(type) {
		case If:
			v.Then = normalizeStmts(v.Then)
			v.Else = normalizeStmts(v.Else)
			out[i] = v
		case Repeat:
			v.Body = normalizeStmts(v.Body)
			out[i] = v
		default:
			out[i] = st
		}
	}
	return out
}

func TestRandomServiceExecuteTotal(t *testing.T) {
	// Execution must never error on a valid service, for any request drawn
	// from the oracle's value pool.
	pool := BenignValues()
	for _, k := range AllSinkKinds() {
		pool = append(pool, AttackPayloads(k)...)
	}
	for seed := uint64(0); seed < propertyTrials; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		rng := stats.NewRNG(seed ^ 0xabcdef)
		for trial := 0; trial < 5; trial++ {
			req := Request{}
			for _, p := range svc.Params {
				req[p] = pool[rng.Intn(len(pool))]
			}
			if _, err := Execute(svc, req); err != nil {
				t.Fatalf("seed %d: execution failed: %v\n%s", seed, err, Print(svc))
			}
		}
	}
}

func TestRandomServiceExecuteDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		req := Request{}
		for i, p := range svc.Params {
			req[p] = AttackPayloads(AllSinkKinds()[i%5])[0]
		}
		r1, err1 := Execute(svc, req)
		r2, err2 := Execute(svc, req)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Rejected != r2.Rejected || len(r1.Events) != len(r2.Events) {
			t.Fatalf("seed %d: nondeterministic execution", seed)
		}
		for i := range r1.Events {
			if r1.Events[i].Value.String() != r2.Events[i].Value.String() {
				t.Fatalf("seed %d: event %d differs", seed, i)
			}
		}
	}
}

func TestRandomServiceOracleDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		t1, err1 := AnalyzeProbing(svc, interpProbe)
		t2, err2 := AnalyzeProbing(svc, interpProbe)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(t1) != len(t2) {
			t.Fatalf("seed %d: oracle truth count differs", seed)
		}
		for i := range t1 {
			if t1[i].Vulnerable != t2[i].Vulnerable {
				t.Fatalf("seed %d: oracle label for sink %d differs", seed, t1[i].SinkID)
			}
		}
	}
}

func TestRandomServiceWitnessesReproduce(t *testing.T) {
	// Every vulnerable verdict must come with a witness that actually
	// demonstrates structural taint at the sink.
	for seed := uint64(0); seed < 40; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		truths, err := AnalyzeProbing(svc, interpProbe)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range truths {
			if !tr.Vulnerable {
				continue
			}
			res, err := Execute(svc, tr.Witness)
			if err != nil {
				t.Fatalf("seed %d: witness execution failed: %v", seed, err)
			}
			found := false
			for _, ev := range res.EventsFor(tr.SinkID) {
				if StructuralTaint(ev.Kind, ev.Value) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: witness %v does not reproduce sink %d\n%s",
					seed, tr.Witness, tr.SinkID, Print(svc))
			}
		}
	}
}

func TestRandomServiceTaintConservation(t *testing.T) {
	// A service whose parameters are all empty strings can never produce
	// tainted characters anywhere (taint only enters through parameters).
	for seed := uint64(0); seed < 60; seed++ {
		svc := randomService(seed)
		reassignSinkIDs(svc)
		res, err := Execute(svc, Request{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Value.AnyTainted() {
				t.Fatalf("seed %d: taint appeared from empty parameters\n%s", seed, Print(svc))
			}
		}
	}
}
