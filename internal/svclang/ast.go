// Package svclang defines a miniature web-service language used as the
// benchmark workload substrate. Services written in it take string
// parameters (attacker-controlled input), manipulate them with string
// operations, sanitizers and validators, and finally pass them to security
// sinks (SQL queries, XPath queries, HTML output, shell commands, file
// paths).
//
// The published benchmark campaigns behind the paper ran real detection
// tools against web services with seeded injection vulnerabilities. This
// package is the synthetic equivalent: small enough to analyse and execute
// exactly, rich enough that real static-analysis and penetration-testing
// mini-tools exhibit the same true-positive/false-positive trade-offs as
// their industrial counterparts.
//
// The package provides the AST (this file), a lexer/parser and printer for
// a textual form, a concrete interpreter with per-character taint tracking,
// and structure-deviation oracles that define ground truth for "is this
// sink exploitable".
package svclang

import "fmt"

// SinkKind identifies the class of security-sensitive operation a value
// flows into. Each kind has its own notion of "structure" that an attacker
// must not be able to alter, and its own set of adequate sanitizers.
type SinkKind int

// Sink kinds, mirroring the CWE classes most used in web-service
// benchmarks.
const (
	SinkSQL   SinkKind = iota + 1 // CWE-89: SQL injection
	SinkXPath                     // CWE-643: XPath injection
	SinkHTML                      // CWE-79: cross-site scripting
	SinkCmd                       // CWE-78: OS command injection
	SinkPath                      // CWE-22: path traversal
)

// AllSinkKinds lists every sink kind in declaration order.
func AllSinkKinds() []SinkKind {
	return []SinkKind{SinkSQL, SinkXPath, SinkHTML, SinkCmd, SinkPath}
}

// String implements fmt.Stringer.
func (k SinkKind) String() string {
	switch k {
	case SinkSQL:
		return "sql"
	case SinkXPath:
		return "xpath"
	case SinkHTML:
		return "html"
	case SinkCmd:
		return "cmd"
	case SinkPath:
		return "path"
	default:
		return fmt.Sprintf("SinkKind(%d)", int(k))
	}
}

// CWE returns the CWE identifier conventionally associated with the sink
// kind.
func (k SinkKind) CWE() string {
	switch k {
	case SinkSQL:
		return "CWE-89"
	case SinkXPath:
		return "CWE-643"
	case SinkHTML:
		return "CWE-79"
	case SinkCmd:
		return "CWE-78"
	case SinkPath:
		return "CWE-22"
	default:
		return "CWE-?"
	}
}

// SinkKindFromString parses the textual sink kind used in source files.
func SinkKindFromString(s string) (SinkKind, bool) {
	for _, k := range AllSinkKinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Service is one web-service operation: the unit of workload generation,
// analysis and testing.
type Service struct {
	// Name identifies the service within a corpus.
	Name string
	// Params lists the declared input parameters in declaration order.
	Params []string
	// Body is the statement sequence executed per request.
	Body []Stmt
}

// Stmt is a statement node. The concrete types are VarDecl, Assign, If,
// Repeat, Sink and Reject.
type Stmt interface {
	stmtNode()
}

// VarDecl declares a local string variable initialised to the empty
// string.
type VarDecl struct {
	Name string
}

// Assign assigns the value of an expression to a variable or parameter.
type Assign struct {
	Name string
	Expr Expr
}

// If branches on a condition. Else may be empty.
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// Repeat executes its body a fixed number of times. Fixed bounds keep the
// language terminating by construction, which the exhaustive ground-truth
// oracle relies on.
type Repeat struct {
	Count int
	Body  []Stmt
}

// Sink passes a value to a security-sensitive operation.
type Sink struct {
	// ID is unique within the service and identifies the sink in tool
	// reports and ground-truth labels.
	ID int
	// Kind is the sink class.
	Kind SinkKind
	// Expr is the value flowing into the sink.
	Expr Expr
	// Silent marks sinks whose failures produce no observable response
	// difference (e.g. queries whose errors are swallowed). Error-based
	// dynamic tools cannot confirm injections on silent sinks.
	Silent bool
}

// Reject aborts the request (input validation failure). Execution of the
// request stops immediately.
type Reject struct{}

// Store persists a value under a key in the service's session store
// (database/session state shared across requests). Together with load()
// it models second-order flows: data stored by one request and used by a
// later one — the classic blind spot of stateless dynamic scanners.
type Store struct {
	Key  string
	Expr Expr
}

func (VarDecl) stmtNode() {}
func (Assign) stmtNode()  {}
func (If) stmtNode()      {}
func (Repeat) stmtNode()  {}
func (Sink) stmtNode()    {}
func (Reject) stmtNode()  {}
func (Store) stmtNode()   {}

// Expr is an expression node. The concrete types are Lit, Ident and Call.
type Expr interface {
	exprNode()
}

// Lit is a string literal.
type Lit struct {
	Value string
}

// Ident references a variable or parameter.
type Ident struct {
	Name string
}

// Builtin identifies a built-in string function.
type Builtin int

// Built-in functions. Concat joins values; the Escape* family are
// sink-specific sanitizers; Numeric is a universal sanitizer (strips
// everything but digits); Upper and Trim are taint-preserving transforms.
const (
	BuiltinConcat Builtin = iota + 1
	BuiltinEscapeSQL
	BuiltinEscapeXPath
	BuiltinEscapeHTML
	BuiltinEscapeShell
	BuiltinSanitizePath
	BuiltinNumeric
	BuiltinUpper
	BuiltinTrim
)

// String implements fmt.Stringer, yielding the source-level name.
func (b Builtin) String() string {
	switch b {
	case BuiltinConcat:
		return "concat"
	case BuiltinEscapeSQL:
		return "escape_sql"
	case BuiltinEscapeXPath:
		return "escape_xpath"
	case BuiltinEscapeHTML:
		return "escape_html"
	case BuiltinEscapeShell:
		return "escape_shell"
	case BuiltinSanitizePath:
		return "sanitize_path"
	case BuiltinNumeric:
		return "numeric"
	case BuiltinUpper:
		return "upper"
	case BuiltinTrim:
		return "trim"
	default:
		return fmt.Sprintf("Builtin(%d)", int(b))
	}
}

// BuiltinFromString parses a built-in function name.
func BuiltinFromString(s string) (Builtin, bool) {
	for b := BuiltinConcat; b <= BuiltinTrim; b++ {
		if b.String() == s {
			return b, true
		}
	}
	return 0, false
}

// Arity returns the number of arguments the builtin takes; -1 means
// variadic (at least one).
func (b Builtin) Arity() int {
	if b == BuiltinConcat {
		return -1
	}
	return 1
}

// Sanitizes reports whether the builtin is an adequate sanitizer for the
// *canonical context* of the given sink kind (single-quoted string splice
// for SQL and XPath, text node for HTML, argument word for commands,
// relative filename for paths). The matrix is verified against the
// structural-taint oracle by the test suite.
//
// Note the deliberate off-diagonal entries: encoding sanitizers that
// neutralise the quote character (escape_xpath, escape_html) accidentally
// protect quoted SQL splices too — a well-known real-world phenomenon.
// Static analysers that assume a diagonal matrix over-report exactly these
// cases, which is one of the false-positive mechanisms the benchmark
// exercises.
func (b Builtin) Sanitizes(k SinkKind) bool {
	switch b {
	case BuiltinNumeric:
		return true // digits are inert in every sink
	case BuiltinEscapeSQL:
		// Doubling ' works in SQL; in XPath 1.0 there is no in-string
		// escape, so the doubled quote still terminates the literal.
		return k == SinkSQL
	case BuiltinEscapeXPath:
		// Encodes both quote characters as entities: adequate for quoted
		// XPath, and incidentally for quoted SQL (the quote never appears).
		return k == SinkXPath || k == SinkSQL
	case BuiltinEscapeHTML:
		// htmlspecialchars with ENT_QUOTES: encodes < > & " '. Adequate
		// for HTML text, and incidentally for quoted SQL/XPath splices.
		return k == SinkHTML || k == SinkSQL || k == SinkXPath
	case BuiltinEscapeShell:
		// Backslash escaping means nothing to SQL/XPath/HTML parsers.
		return k == SinkCmd
	case BuiltinSanitizePath:
		return k == SinkPath
	default:
		return false
	}
}

// IsSanitizer reports whether the builtin sanitizes at least one sink
// kind.
func (b Builtin) IsSanitizer() bool {
	for _, k := range AllSinkKinds() {
		if b.Sanitizes(k) {
			return true
		}
	}
	return false
}

// Call applies a built-in function to arguments.
type Call struct {
	Fn   Builtin
	Args []Expr
}

// LoadExpr reads the session-store value for a key; missing keys read as
// the empty string.
type LoadExpr struct {
	Key string
}

func (Lit) exprNode()      {}
func (Ident) exprNode()    {}
func (Call) exprNode()     {}
func (LoadExpr) exprNode() {}

// Cond is a condition node. The concrete types are Match, Contains, Eq,
// Not and BoolLit.
type Cond interface {
	condNode()
}

// CharClass names a character class usable in Match conditions.
type CharClass int

// Character classes for input validation.
const (
	ClassDigits CharClass = iota + 1
	ClassAlpha
	ClassAlnum
)

// String implements fmt.Stringer.
func (c CharClass) String() string {
	switch c {
	case ClassDigits:
		return "digits"
	case ClassAlpha:
		return "alpha"
	case ClassAlnum:
		return "alnum"
	default:
		return fmt.Sprintf("CharClass(%d)", int(c))
	}
}

// CharClassFromString parses a character-class name.
func CharClassFromString(s string) (CharClass, bool) {
	for c := ClassDigits; c <= ClassAlnum; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// MatchesClass reports whether every rune of s belongs to the class. The
// empty string matches every class (as common validation libraries do;
// services guard emptiness separately when they care).
func (c CharClass) MatchesClass(s string) bool {
	for _, r := range s {
		switch c {
		case ClassDigits:
			if r < '0' || r > '9' {
				return false
			}
		case ClassAlpha:
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
				return false
			}
		case ClassAlnum:
			if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Match tests a value against a character class.
type Match struct {
	Expr  Expr
	Class CharClass
}

// Contains tests whether the value of Expr contains the literal Needle.
type Contains struct {
	Expr   Expr
	Needle string
}

// Eq tests the value of Expr for equality with the literal Value.
type Eq struct {
	Expr  Expr
	Value string
}

// Not negates a condition.
type Not struct {
	Inner Cond
}

// BoolLit is a constant condition. Generators use constant-false guards to
// create statically unreachable sinks (a classic static-analysis false
// positive trap).
type BoolLit struct {
	Value bool
}

func (Match) condNode()    {}
func (Contains) condNode() {}
func (Eq) condNode()       {}
func (Not) condNode()      {}
func (BoolLit) condNode()  {}

// Sinks returns every sink statement in the service in source order,
// descending into branches and loops.
func (s *Service) Sinks() []Sink {
	var out []Sink
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, st := range stmts {
			switch v := st.(type) {
			case Sink:
				out = append(out, v)
			case If:
				walk(v.Then)
				walk(v.Else)
			case Repeat:
				walk(v.Body)
			}
		}
	}
	walk(s.Body)
	return out
}

// UsesStore reports whether the service reads or writes the session store
// (i.e. has second-order data flows).
func (s *Service) UsesStore() bool {
	found := false
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch v := e.(type) {
		case LoadExpr:
			found = true
		case Call:
			for _, a := range v.Args {
				walkExpr(a)
			}
		}
	}
	var walkCond func(c Cond)
	walkCond = func(c Cond) {
		switch v := c.(type) {
		case Match:
			walkExpr(v.Expr)
		case Contains:
			walkExpr(v.Expr)
		case Eq:
			walkExpr(v.Expr)
		case Not:
			walkCond(v.Inner)
		}
	}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, st := range stmts {
			switch v := st.(type) {
			case Store:
				found = true
			case Assign:
				walkExpr(v.Expr)
			case Sink:
				walkExpr(v.Expr)
			case If:
				walkCond(v.Cond)
				walk(v.Then)
				walk(v.Else)
			case Repeat:
				walk(v.Body)
			}
		}
	}
	walk(s.Body)
	return found
}

// Validate checks structural well-formedness: declared-before-use names,
// unique parameter and sink IDs, sane repeat bounds, and known builtins
// with correct arity.
func (s *Service) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("svclang: service has no name")
	}
	declared := map[string]bool{}
	for _, p := range s.Params {
		if declared[p] {
			return fmt.Errorf("svclang: %s: duplicate parameter %q", s.Name, p)
		}
		declared[p] = true
	}
	sinkIDs := map[int]bool{}
	var checkExpr func(e Expr) error
	checkExpr = func(e Expr) error {
		switch v := e.(type) {
		case Lit:
			return nil
		case Ident:
			if !declared[v.Name] {
				return fmt.Errorf("svclang: %s: use of undeclared name %q", s.Name, v.Name)
			}
			return nil
		case LoadExpr:
			if v.Key == "" {
				return fmt.Errorf("svclang: %s: load with empty key", s.Name)
			}
			return nil
		case Call:
			if v.Fn < BuiltinConcat || v.Fn > BuiltinTrim {
				return fmt.Errorf("svclang: %s: unknown builtin %d", s.Name, int(v.Fn))
			}
			if want := v.Fn.Arity(); want >= 0 && len(v.Args) != want {
				return fmt.Errorf("svclang: %s: %s takes %d argument(s), got %d", s.Name, v.Fn, want, len(v.Args))
			}
			if v.Fn.Arity() == -1 && len(v.Args) == 0 {
				return fmt.Errorf("svclang: %s: %s needs at least one argument", s.Name, v.Fn)
			}
			for _, a := range v.Args {
				if err := checkExpr(a); err != nil {
					return err
				}
			}
			return nil
		case nil:
			return fmt.Errorf("svclang: %s: nil expression", s.Name)
		default:
			return fmt.Errorf("svclang: %s: unknown expression type %T", s.Name, e)
		}
	}
	var checkCond func(c Cond) error
	checkCond = func(c Cond) error {
		switch v := c.(type) {
		case Match:
			return checkExpr(v.Expr)
		case Contains:
			return checkExpr(v.Expr)
		case Eq:
			return checkExpr(v.Expr)
		case Not:
			return checkCond(v.Inner)
		case BoolLit:
			return nil
		case nil:
			return fmt.Errorf("svclang: %s: nil condition", s.Name)
		default:
			return fmt.Errorf("svclang: %s: unknown condition type %T", s.Name, c)
		}
	}
	var checkStmts func(stmts []Stmt) error
	checkStmts = func(stmts []Stmt) error {
		for _, st := range stmts {
			switch v := st.(type) {
			case VarDecl:
				if declared[v.Name] {
					return fmt.Errorf("svclang: %s: duplicate declaration %q", s.Name, v.Name)
				}
				declared[v.Name] = true
			case Assign:
				if !declared[v.Name] {
					return fmt.Errorf("svclang: %s: assignment to undeclared %q", s.Name, v.Name)
				}
				if err := checkExpr(v.Expr); err != nil {
					return err
				}
			case If:
				if err := checkCond(v.Cond); err != nil {
					return err
				}
				if err := checkStmts(v.Then); err != nil {
					return err
				}
				if err := checkStmts(v.Else); err != nil {
					return err
				}
			case Repeat:
				if v.Count < 1 || v.Count > 16 {
					return fmt.Errorf("svclang: %s: repeat count %d out of [1,16]", s.Name, v.Count)
				}
				if err := checkStmts(v.Body); err != nil {
					return err
				}
			case Sink:
				if sinkIDs[v.ID] {
					return fmt.Errorf("svclang: %s: duplicate sink ID %d", s.Name, v.ID)
				}
				sinkIDs[v.ID] = true
				if _, ok := SinkKindFromString(v.Kind.String()); !ok {
					return fmt.Errorf("svclang: %s: unknown sink kind %d", s.Name, int(v.Kind))
				}
				if err := checkExpr(v.Expr); err != nil {
					return err
				}
			case Reject:
				// always fine
			case Store:
				if v.Key == "" {
					return fmt.Errorf("svclang: %s: store with empty key", s.Name)
				}
				if err := checkExpr(v.Expr); err != nil {
					return err
				}
			case nil:
				return fmt.Errorf("svclang: %s: nil statement", s.Name)
			default:
				return fmt.Errorf("svclang: %s: unknown statement type %T", s.Name, st)
			}
		}
		return nil
	}
	return checkStmts(s.Body)
}
