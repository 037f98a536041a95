package svclang

// Shared builtin semantics. The interpreter's applyBuiltin and the VM's
// opBuiltin handler used to carry two hand-mirrored switches over
// Builtin; both now read the builtinSpecs table below. Seven of the
// nine builtins are character-wise rewrites expressed as a replFunc;
// concat and trim are structural (variadic join, edge-slicing) and are
// marked as such in the table rather than exempted in the linter.
// vdlint's judgesync analyzer verifies every Builtin constant has an
// entry.

// ReplFunc is a character-wise builtin: it returns nil to keep r
// unchanged, or an interned replacement slice (empty = delete r). Each
// replacement character inherits the source character's taint flag, in
// both engines.
type ReplFunc func(r rune) []rune

// builtinMode distinguishes the non-character-wise builtins.
type builtinMode int

const (
	builtinCharwise   builtinMode = iota
	builtinModeConcat             // variadic concatenation (dedicated VM opcode)
	builtinModeTrim               // edge-space slicing, shares backing arrays
)

// builtinSpec is one builtin's table entry.
type builtinSpec struct {
	mode builtinMode
	repl ReplFunc // set iff mode == builtinCharwise
}

// Interned replacement slices: allocated once, shared by every
// application in both engines.
var (
	replSQLQuote  = []rune("''")
	replXPathApos = []rune("&apos;")
	replXPathQuot = []rune("&quot;")
	replHTMLLt    = []rune("&lt;")
	replHTMLGt    = []rune("&gt;")
	replHTMLAmp   = []rune("&amp;")
	replHTMLQuot  = []rune("&quot;")
	replHTMLApos  = []rune("&#39;")
	replDrop      = []rune{}
)

// shellEscapeSet is the metacharacter set escape_shell prefixes with a
// backslash (the backslash itself included).
const shellEscapeSet = " ;|&$`\"'\\()<>*?~#"

// shellReplTab maps each shell metacharacter to its interned
// two-character escape.
var shellReplTab = func() map[rune][]rune {
	m := make(map[rune][]rune, len(shellEscapeSet))
	for _, r := range shellEscapeSet {
		m[r] = []rune{'\\', r}
	}
	return m
}()

// upperReplTab holds the interned single-character replacements for
// 'a'..'z'.
var upperReplTab = func() [26][]rune {
	var t [26][]rune
	for i := range t {
		t[i] = []rune{'A' + rune(i)}
	}
	return t
}()

func sqlRepl(r rune) []rune {
	if r == '\'' {
		return replSQLQuote
	}
	return nil
}

func xpathRepl(r rune) []rune {
	switch r {
	case '\'':
		return replXPathApos
	case '"':
		return replXPathQuot
	}
	return nil
}

func htmlRepl(r rune) []rune {
	switch r {
	case '<':
		return replHTMLLt
	case '>':
		return replHTMLGt
	case '&':
		return replHTMLAmp
	case '"':
		return replHTMLQuot
	case '\'':
		return replHTMLApos
	}
	return nil
}

// shellRepl backslash-escapes the shell metacharacter set; a map miss
// returns nil, which keeps the character.
func shellRepl(r rune) []rune {
	return shellReplTab[r]
}

// pathRepl drops every path-structural character: separators and dots.
func pathRepl(r rune) []rune {
	if r == '/' || r == '\\' || r == '.' {
		return replDrop
	}
	return nil
}

func numericRepl(r rune) []rune {
	if r >= '0' && r <= '9' {
		return nil
	}
	return replDrop
}

func upperRepl(r rune) []rune {
	if r >= 'a' && r <= 'z' {
		return upperReplTab[r-'a']
	}
	return nil
}

// builtinSpecs is indexed by Builtin. Every Builtin constant must have
// an entry; vdlint's judgesync analyzer verifies coverage statically.
var builtinSpecs = [BuiltinTrim + 1]builtinSpec{
	BuiltinConcat:       {mode: builtinModeConcat},
	BuiltinEscapeSQL:    {repl: sqlRepl},
	BuiltinEscapeXPath:  {repl: xpathRepl},
	BuiltinEscapeHTML:   {repl: htmlRepl},
	BuiltinEscapeShell:  {repl: shellRepl},
	BuiltinSanitizePath: {repl: pathRepl},
	BuiltinNumeric:      {repl: numericRepl},
	BuiltinUpper:        {repl: upperRepl},
	BuiltinTrim:         {mode: builtinModeTrim},
}

// ReplFor returns the character-wise replacement table of fn, or nil
// for the structural builtins (concat, trim) and unknown values. The
// bytecode VM applies it over its packed representation; the
// interpreter applies the same function through TString.mapRepl.
func ReplFor(fn Builtin) ReplFunc {
	if fn < 0 || int(fn) >= len(builtinSpecs) {
		return nil
	}
	return builtinSpecs[fn].repl
}
