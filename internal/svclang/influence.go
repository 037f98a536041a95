package svclang

import "strings"

// Influence analysis for the pruned ground-truth oracle.
//
// The exhaustive oracle enumerates the full value pool over every
// parameter (pool^|params| probes, squared for stateful request
// pairs). Almost all of those probes are provably incapable of
// changing any sink's verdict or its first witness. This file computes
// a per-service oraclePlan that AnalyzeProbing hands to the sweep in
// oracle.go in place of the exhaustive plan; the plan is built from
// four sound, witness-preserving observations:
//
//  1. Static safety. A sink whose value no parameter data can reach —
//     through variables, session-store round trips, or any live branch
//     — can never carry a tainted character, so StructuralTaint is
//     false on every probe and the sink is safe with zero probes.
//     Branches guarded by constant conditions are resolved statically,
//     so a sink in a dead arm is unreachable and equally safe.
//
//  2. Influence groups. Each remaining sink is influenced (data or
//     control, rejects included) by a subset of the parameters; sinks
//     with the same influence set form a group that is enumerated over
//     only those parameters, with every other parameter pinned to the
//     first benign pool value. The exhaustive first witness of a sink
//     assigns the first pool value to every non-influencing parameter
//     (outcomes are invariant in them and the odometer counts the
//     first value as 0), so pinning preserves witnesses exactly.
//
//  3. Predicate classes. If every condition a parameter can influence
//     is a pure function of that parameter alone (literals and
//     builtins only — no variables, no loads, no other parameters),
//     two pool values that decide all those conditions identically are
//     interchangeable for branch selection. The first value of each
//     class represents it; later classmates are kept only when their
//     content can matter at a sink (observation 4).
//
//  4. Judge equivalence classes. Two pool values are interchangeable
//     at a sink when their segments provably receive the same
//     structural-taint verdict at every event and leave the judge's
//     scan of the surrounding characters unchanged — e.g. at a SQL
//     sink every quote-free value carrying a letter behaves like every
//     other (the quote state can't change, and any tainted non-digit
//     outside a string literal is structural), and at a path sink
//     every separator-bearing value is uniformly vulnerable. The
//     builtin chains on the parameter's dataflow paths into each sink
//     gate the classes: chains that can drop characters (numeric,
//     sanitize_path) may empty the segment and re-parent a command
//     backslash escape or join path dots across it, and escape_shell
//     mints backslashes, so such chains demote values to singleton
//     classes. kindClassKey documents the full per-kind argument. A
//     value is enumerated only if it is the first of its composite
//     (predicate × per-sink judge) class; replacing a skipped value
//     with its earlier classmate reproduces the exact event verdicts,
//     which is why skipping it cannot move a first witness.
//
// Soundness of the combination (pruned ≡ exhaustive, witnesses
// included) is locked by TestAnalyzePruningMatchesExhaustive,
// FuzzAnalyzePruningDifferential and the early-exit property test.

// builtin bitmask over Builtin values.
type builtinMask uint16

func (m builtinMask) has(fn Builtin) bool { return m&(1<<uint(fn)) != 0 }

// sinkReach accumulates what the reachability walk learns about one
// sink: whether any live path reaches it, which virtual parameters can
// influence its data/behaviour, and the builtins applied on each
// parameter's dataflow paths into it.
type sinkReach struct {
	id      int
	kind    SinkKind
	reached bool
	data    uint32 // virtual params whose characters can reach the value
	infl    uint32 // data ∪ control ∪ reject guards
	bset    []builtinMask
}

// condOcc is one occurrence of a condition in a live arm of one
// execution phase (stateful services walk the body twice, once per
// virtual parameter).
type condOcc struct {
	c      Cond
	infl   uint32
	simple bool // pure function of exactly one virtual parameter
	param  int  // that parameter, when simple
}

// exprFacts is the walk's abstract value: which virtual parameters'
// data can occupy the expression's characters, which can influence it
// at all, and the builtins on each parameter's dataflow paths.
type exprFacts struct {
	data uint32
	infl uint32
	bset []builtinMask
}

// reachWalker runs the abstract interpretation. All sets only ever
// grow, so iterating each phase's walk to a fixpoint converges (the
// lattice height is bounded by the handful of bits involved).
type reachWalker struct {
	svc      *Service
	nv       int
	stateful bool
	phase    int
	assigned map[string]bool // parameters the body reassigns

	varData map[string]uint32
	varInfl map[string]uint32
	varB    map[string][]builtinMask

	stData map[string]uint32
	stInfl map[string]uint32
	stB    map[string][]builtinMask

	rejectGuards uint32

	sinks     map[int]*sinkReach
	sinkOrder []int

	// Condition occurrences per phase, indexed by visit order. Cond
	// nodes contain slices and are not comparable, so occurrences are
	// identified positionally: the walk is deterministic and constant
	// conditions are resolved syntactically, so every pass visits the
	// same live conditions in the same order.
	phaseConds [][]*condOcc
	condSeq    int

	changed bool
}

func newReachWalker(svc *Service, stateful bool) *reachWalker {
	nv := virtualParams(svc, stateful)
	// Parameters are mutable: a body may reassign one, after which its
	// identifier no longer denotes the request value. Reassigned
	// parameters flow like ordinary variables (their var-map entries are
	// seeded with the parameter bit each phase) and are excluded from
	// predicate classing. The scan includes dead arms — an
	// over-approximation that only costs precision.
	assigned := map[string]bool{}
	isParam := map[string]bool{}
	for _, p := range svc.Params {
		isParam[p] = true
	}
	var scan func(stmts []Stmt)
	scan = func(stmts []Stmt) {
		for _, st := range stmts {
			switch v := st.(type) {
			case Assign:
				if isParam[v.Name] {
					assigned[v.Name] = true
				}
			case If:
				scan(v.Then)
				scan(v.Else)
			case Repeat:
				scan(v.Body)
			}
		}
	}
	scan(svc.Body)
	return &reachWalker{
		svc:      svc,
		nv:       nv,
		stateful: stateful,
		assigned: assigned,
		varData:  map[string]uint32{},
		varInfl:  map[string]uint32{},
		varB:     map[string][]builtinMask{},
		stData:   map[string]uint32{},
		stInfl:   map[string]uint32{},
		stB:      map[string][]builtinMask{},

		sinks: map[int]*sinkReach{},
	}
}

// paramBit maps a parameter name to its virtual-parameter bit for the
// current phase, or -1 for non-parameter names.
func (w *reachWalker) paramBit(name string) int {
	for i, p := range w.svc.Params {
		if p == name {
			if w.stateful {
				return w.phase
			}
			return i
		}
	}
	return -1
}

func (w *reachWalker) grow32(m map[string]uint32, key string, bits uint32) {
	if m[key]|bits != m[key] {
		m[key] |= bits
		w.changed = true
	}
}

func (w *reachWalker) growB(m map[string][]builtinMask, key string, bs []builtinMask) {
	cur := m[key]
	if cur == nil {
		cur = make([]builtinMask, w.nv)
		m[key] = cur
	}
	for i, b := range bs {
		if cur[i]|b != cur[i] {
			cur[i] |= b
			w.changed = true
		}
	}
}

func mergeB(dst, src []builtinMask) {
	for i, b := range src {
		dst[i] |= b
	}
}

// expr computes the abstract value of e in the current phase.
func (w *reachWalker) expr(e Expr) exprFacts {
	switch x := e.(type) {
	case Lit:
		return exprFacts{bset: make([]builtinMask, w.nv)}
	case Ident:
		// Parameters are seeded into the var maps each phase, so one
		// lookup covers both the original request value and anything
		// later assigned over it.
		f := exprFacts{data: w.varData[x.Name], infl: w.varInfl[x.Name], bset: make([]builtinMask, w.nv)}
		if b := w.varB[x.Name]; b != nil {
			mergeB(f.bset, b)
		}
		return f
	case Call:
		f := exprFacts{bset: make([]builtinMask, w.nv)}
		for _, a := range x.Args {
			af := w.expr(a)
			f.data |= af.data
			f.infl |= af.infl
			mergeB(f.bset, af.bset)
			// The builtin transforms the characters of every parameter
			// whose data flows through this argument.
			for p := 0; p < w.nv; p++ {
				if af.data&(1<<uint(p)) != 0 {
					f.bset[p] |= 1 << uint(x.Fn)
				}
			}
		}
		return f
	case LoadExpr:
		f := exprFacts{data: w.stData[x.Key], infl: w.stInfl[x.Key], bset: make([]builtinMask, w.nv)}
		if b := w.stB[x.Key]; b != nil {
			mergeB(f.bset, b)
		}
		return f
	default:
		// Unknown expressions cannot occur post-Validate; treat them as
		// influenced by everything, which only disables pruning.
		all := uint32(1<<uint(w.nv)) - 1
		f := exprFacts{data: all, infl: all, bset: make([]builtinMask, w.nv)}
		for i := range f.bset {
			f.bset[i] = ^builtinMask(0)
		}
		return f
	}
}

// condFacts folds the influence facts of every expression inside c and
// reports whether c is a pure function of exactly one parameter
// (simple): load-free, variable-free, and naming a single parameter.
func (w *reachWalker) condFacts(c Cond) (infl uint32, simple bool, param int) {
	var params uint32
	pure := true
	var scanExpr func(e Expr)
	scanExpr = func(e Expr) {
		switch x := e.(type) {
		case Lit:
		case Ident:
			if bit := w.paramBit(x.Name); bit >= 0 && !w.assigned[x.Name] {
				params |= 1 << uint(bit)
			} else {
				pure = false
			}
		case Call:
			for _, a := range x.Args {
				scanExpr(a)
			}
		case LoadExpr:
			pure = false
		default:
			pure = false
		}
		f := w.expr(e)
		infl |= f.infl
	}
	var scanCond func(c Cond)
	scanCond = func(c Cond) {
		switch x := c.(type) {
		case Match:
			scanExpr(x.Expr)
		case Contains:
			scanExpr(x.Expr)
		case Eq:
			scanExpr(x.Expr)
		case Not:
			scanCond(x.Inner)
		case BoolLit:
		default:
			pure = false
			infl |= uint32(1<<uint(w.nv)) - 1
		}
	}
	scanCond(c)
	if !pure || bitCount(params) != 1 {
		return infl, false, -1
	}
	return infl, true, lowestBit(params)
}

func bitCount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func lowestBit(m uint32) int {
	for i := 0; i < 32; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// recordCond registers (or refreshes) the condition occurrence at the
// current walk position and returns its converged influence set.
// Influence facts can grow as variable and store sets converge, so
// re-walks merge into the existing occurrence.
func (w *reachWalker) recordCond(c Cond) uint32 {
	infl, simple, param := w.condFacts(c)
	list := w.phaseConds[w.phase]
	if w.condSeq < len(list) {
		occ := list[w.condSeq]
		w.condSeq++
		if occ.infl|infl != occ.infl {
			occ.infl |= infl
			w.changed = true
		}
		return occ.infl
	}
	w.phaseConds[w.phase] = append(list, &condOcc{c: c, infl: infl, simple: simple, param: param})
	w.condSeq++
	return infl
}

// sink fetches (or creates) the reach record of sink id.
func (w *reachWalker) sink(id int, kind SinkKind) *sinkReach {
	rec := w.sinks[id]
	if rec == nil {
		rec = &sinkReach{id: id, kind: kind, bset: make([]builtinMask, w.nv)}
		w.sinks[id] = rec
		w.sinkOrder = append(w.sinkOrder, id)
	}
	return rec
}

// walk abstractly executes stmts under the control context ctx (the
// union of parameter bits influencing any enclosing live condition).
func (w *reachWalker) walk(stmts []Stmt, ctx uint32) {
	for _, s := range stmts {
		switch v := s.(type) {
		case VarDecl:
			// Hoisted empty value: contributes nothing. The runtime
			// reset to "" only shrinks taint, and the analysis is a
			// union over all paths, so ignoring the reset is sound.
		case Assign:
			f := w.expr(v.Expr)
			w.grow32(w.varData, v.Name, f.data)
			w.grow32(w.varInfl, v.Name, f.infl|ctx)
			w.growB(w.varB, v.Name, f.bset)
		case If:
			if val, ok := evalConstCond(v.Cond); ok {
				if val {
					w.walk(v.Then, ctx)
				} else {
					w.walk(v.Else, ctx)
				}
				continue
			}
			cinfl := w.recordCond(v.Cond)
			w.walk(v.Then, ctx|cinfl)
			w.walk(v.Else, ctx|cinfl)
		case Repeat:
			w.walk(v.Body, ctx)
		case Sink:
			f := w.expr(v.Expr)
			rec := w.sink(v.ID, v.Kind)
			rec.reached = true
			if rec.data|f.data != rec.data || rec.infl|(f.infl|ctx) != rec.infl {
				w.changed = true
			}
			rec.data |= f.data
			rec.infl |= f.infl | ctx
			mergeB(rec.bset, f.bset)
		case Reject:
			// Any parameter that can steer control to this reject can
			// suppress every later sink event and store write of the
			// request; fold its guards in after the walk (foldRejects).
			if w.rejectGuards|ctx != w.rejectGuards {
				w.rejectGuards |= ctx
				w.changed = true
			}
		case Store:
			f := w.expr(v.Expr)
			w.grow32(w.stData, v.Key, f.data)
			w.grow32(w.stInfl, v.Key, f.infl|ctx)
			w.growB(w.stB, v.Key, f.bset)
		}
	}
}

// foldRejects adds the accumulated reject guards to every sink and
// store-key influence set of the current phase: a reject anywhere in
// the request can suppress later events and writes, so its guards
// influence them all (a sound over-approximation that also covers
// writes and events textually before the reject).
func (w *reachWalker) foldRejects() {
	for _, id := range w.sinkOrder {
		rec := w.sinks[id]
		if rec.infl|w.rejectGuards != rec.infl {
			rec.infl |= w.rejectGuards
			w.changed = true
		}
	}
	for k := range w.stInfl {
		if w.stInfl[k]|w.rejectGuards != w.stInfl[k] {
			w.stInfl[k] |= w.rejectGuards
			w.changed = true
		}
	}
}

// runPhase iterates walk+foldRejects to a fixpoint for one phase.
// Variables are request-local, so each phase starts them fresh; the
// session-store sets persist from the previous phase (that is the
// second-order channel).
func (w *reachWalker) runPhase(phase int) {
	w.phase = phase
	w.varData = map[string]uint32{}
	w.varInfl = map[string]uint32{}
	w.varB = map[string][]builtinMask{}
	for _, p := range w.svc.Params {
		bit := uint32(1) << uint(w.paramBit(p))
		w.varData[p] = bit
		w.varInfl[p] = bit
		w.varB[p] = make([]builtinMask, w.nv)
	}
	w.rejectGuards = 0
	for len(w.phaseConds) <= phase {
		w.phaseConds = append(w.phaseConds, nil)
	}
	for i := 0; i < 64; i++ {
		w.changed = false
		w.condSeq = 0
		w.walk(w.svc.Body, 0)
		w.foldRejects()
		if !w.changed {
			return
		}
	}
}

// evalConstCond statically evaluates a condition that references no
// parameters, variables or loads; ok is false when the condition's
// value can vary at runtime.
func evalConstCond(c Cond) (val, ok bool) {
	return evalPureCond(c, "", TString{})
}

// evalPureExpr evaluates a load-free expression whose identifiers all
// name the given parameter, with the parameter bound to v. ok is false
// when the expression is not such a pure function.
func evalPureExpr(e Expr, param string, v TString) (TString, bool) {
	switch x := e.(type) {
	case Lit:
		return NewTString(x.Value), true
	case Ident:
		if param != "" && x.Name == param {
			return v, true
		}
		return TString{}, false
	case Call:
		args := make([]TString, len(x.Args))
		for i, a := range x.Args {
			av, ok := evalPureExpr(a, param, v)
			if !ok {
				return TString{}, false
			}
			args[i] = av
		}
		out, err := applyBuiltin(x.Fn, args)
		if err != nil {
			return TString{}, false
		}
		return out, true
	default:
		return TString{}, false
	}
}

// evalPureCond evaluates a condition under the same binding, mirroring
// the interpreter's cond evaluation exactly.
func evalPureCond(c Cond, param string, v TString) (val, ok bool) {
	switch x := c.(type) {
	case Match:
		ev, ok := evalPureExpr(x.Expr, param, v)
		if !ok {
			return false, false
		}
		return x.Class.MatchesClass(ev.String()), true
	case Contains:
		ev, ok := evalPureExpr(x.Expr, param, v)
		if !ok {
			return false, false
		}
		return strings.Contains(ev.String(), x.Needle), true
	case Eq:
		ev, ok := evalPureExpr(x.Expr, param, v)
		if !ok {
			return false, false
		}
		return ev.String() == x.Value, true
	case Not:
		iv, ok := evalPureCond(x.Inner, param, v)
		if !ok {
			return false, false
		}
		return !iv, true
	case BoolLit:
		return x.Value, true
	default:
		return false, false
	}
}

// kindClassKey assigns pool value v (at pool index vi) to a judge
// equivalence class for one sink kind, given the builtin chain
// over-approximation bs on the parameter's dataflow paths into the
// sink. Two values with the same key are guaranteed to produce the
// same structural-taint verdict at every event of that sink whenever
// every condition outcome matches (which the predicate-class component
// of the composite key ensures) — so skipping all but the first of a
// class cannot change a label or move a first witness. A value whose
// equivalence cannot be established gets a singleton class (the key
// embeds vi) and is always kept.
//
// The class arguments, per kind (the chain facts rely on builtins being
// per-character replacements: no replacement output ever contains a
// quote character, a '<', or — except escape_shell's — a backslash, so
// those characters can only descend from the raw value):
//
//   - SQL/XPath: a value without the kind's quote characters can never
//     open or close a string literal, so the tokenizer's quote state is
//     identical across all such values and each event's verdict depends
//     only on whether the segment lands inside a literal (inert for
//     everyone) or outside, where any non-digit character is
//     structural. All-digit values (class D, immune to every builtin)
//     are uniformly non-structural; quote-free values carrying a letter
//     (class W) are uniformly structural outside literals — letters
//     survive every builtin except numeric, which gates the class.
//   - HTML: the judge only looks at raw tainted '<'. No builtin mints
//     one, so '<'-free values (class N) are inert under any chain;
//     '<'-bearing values (class L) stay structural unless the chain can
//     remove the '<' (escape_html) or the whole character (numeric).
//   - Cmd: backslash-free values can't alter the escape state of
//     neighbouring characters. Without droppers (numeric,
//     sanitize_path — emptiness would re-target a preceding backslash)
//     and without escape_shell (which mints backslashes and interacts
//     unsoundly with later quote-doubling), meta-free values (N) stay
//     verdict-false and values with a metacharacter past position 0
//     (M) stay verdict-true: every builtin image of a metacharacter
//     contains a metacharacter, and position-0-only metas are excluded
//     because an image can spill metas past a context backslash.
//   - Path: a value containing a separator (S) yields a tainted
//     separator under any chain without droppers (escape_shell only
//     adds separators), so the event verdict is uniformly true. A
//     value with neither separators nor dots (N) can never contribute
//     or connect dot-adjacency, provided the chain cannot mint
//     separators (escape_shell) or empty the segment (droppers), which
//     could join dots across it. Dot-bearing values are
//     context-sensitive and stay singletons.
func kindClassKey(v string, vi int, kind SinkKind, bs builtinMask) string {
	uniq := func() string { return "u" + itoa(vi) }
	droppers := bs.has(BuiltinNumeric) || bs.has(BuiltinSanitizePath)
	switch kind {
	case SinkSQL, SinkXPath:
		quotes := "'"
		if kind == SinkXPath {
			quotes = `'"`
		}
		if strings.ContainsAny(v, quotes) {
			return uniq()
		}
		if allDigits(v) {
			return "D"
		}
		if hasLetter(v) && !bs.has(BuiltinNumeric) {
			return "W"
		}
		return uniq()
	case SinkHTML:
		if !strings.ContainsRune(v, '<') {
			return "N"
		}
		if !bs.has(BuiltinEscapeHTML) && !bs.has(BuiltinNumeric) {
			return "L"
		}
		return uniq()
	case SinkCmd:
		if strings.ContainsRune(v, '\\') {
			return uniq()
		}
		if allDigits(v) {
			return "N" // digit-only: meta-free and immune to every builtin
		}
		if droppers || bs.has(BuiltinEscapeShell) {
			return uniq()
		}
		const metas = " ;|&$`\"'()<>*?~#\t\n"
		first := strings.IndexAny(v, metas)
		switch {
		case first < 0:
			return "N"
		case strings.IndexAny(v[first+len(" "):], metas) >= 0 || first > 0:
			// A metacharacter at position >= 1 (directly, or past the
			// first one) cannot be neutralised by a context backslash.
			return "M"
		default:
			return uniq() // single meta at position 0: context-sensitive
		}
	case SinkPath:
		if droppers {
			return uniq()
		}
		if strings.ContainsAny(v, `/\`) {
			return "S"
		}
		if strings.ContainsRune(v, '.') || bs.has(BuiltinEscapeShell) {
			return uniq()
		}
		return "N"
	default:
		return uniq()
	}
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func hasLetter(s string) bool {
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			return true
		}
	}
	return false
}

// itoa is strconv.Itoa for the tiny non-negative ints the class keys
// embed, kept local to avoid importing strconv for two digits.
func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// buildOraclePlan runs the influence analysis and assembles the pruned
// search plan for svc over the given probe pool. The service must have
// passed Validate and the parameter-count limits.
func buildOraclePlan(svc *Service, pool []string) *oraclePlan {
	stateful := svc.UsesStore()
	w := newReachWalker(svc, stateful)
	w.runPhase(0)
	if stateful {
		w.runPhase(1)
	}

	plan := &oraclePlan{stateful: stateful}

	// Predicate classing per virtual parameter: the conditions it can
	// influence, and whether they are all pure functions of it.
	condsOf := make([][]*condOcc, w.nv)
	classable := make([]bool, w.nv)
	var allConds []*condOcc
	for _, list := range w.phaseConds {
		allConds = append(allConds, list...)
	}
	for p := 0; p < w.nv; p++ {
		classable[p] = true
		for _, occ := range allConds {
			if occ.infl&(1<<uint(p)) == 0 {
				continue
			}
			condsOf[p] = append(condsOf[p], occ)
			if !occ.simple || occ.param != p {
				classable[p] = false
			}
		}
	}
	predKey := func(p int, v string) (string, bool) {
		var sb strings.Builder
		tv := NewTaintedTString(v)
		for _, occ := range condsOf[p] {
			val, ok := evalPureCond(occ.c, svc.Params[w.realParam(p)], tv)
			if !ok {
				// Unreachable for classable params; keep the value.
				return "", false
			}
			if val {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String(), true
	}

	// Group live, data-reachable sinks by influence set, in sink order.
	groupIdx := map[uint32]int{}
	for _, sk := range svc.Sinks() {
		rec := w.sinks[sk.ID]
		if rec == nil || !rec.reached || rec.data == 0 {
			continue // statically safe: zero probes
		}
		gi, ok := groupIdx[rec.infl]
		if !ok {
			gi = len(plan.groups)
			groupIdx[rec.infl] = gi
			plan.groups = append(plan.groups, oracleGroup{})
			for p := 0; p < w.nv; p++ {
				if rec.infl&(1<<uint(p)) != 0 {
					plan.groups[gi].params = append(plan.groups[gi].params, p)
				}
			}
		}
		plan.groups[gi].sinkIDs = append(plan.groups[gi].sinkIDs, sk.ID)
	}

	// Keep-sets per (group, parameter).
	for gi := range plan.groups {
		g := &plan.groups[gi]
		members := make([]*sinkReach, 0, len(g.sinkIDs))
		for _, id := range g.sinkIDs {
			members = append(members, w.sinks[id])
		}
		g.keeps = make([][]int, len(g.params))
		for pi, p := range g.params {
			if !classable[p] {
				g.keeps[pi] = allIndices(len(pool))
				continue
			}
			seenClass := map[string]bool{}
			for vi, v := range pool {
				key, ok := predKey(p, v)
				if !ok {
					g.keeps[pi] = append(g.keeps[pi], vi)
					continue
				}
				// Composite class: same condition outcomes AND the same
				// judge equivalence class at every sink the value's
				// content can reach. Two composite classmates receive
				// identical verdicts at every event, so only the first
				// (odometer-least) member needs to run.
				var sb strings.Builder
				sb.WriteString(key)
				for _, rec := range members {
					if rec.data&(1<<uint(p)) == 0 {
						continue // control-only influence: content never reaches this sink
					}
					sb.WriteByte('|')
					sb.WriteString(kindClassKey(v, vi, rec.kind, rec.bset[p]))
				}
				comp := sb.String()
				if !seenClass[comp] {
					seenClass[comp] = true
					g.keeps[pi] = append(g.keeps[pi], vi)
				}
			}
		}
	}
	return plan
}

// realParam maps a virtual parameter index to the index into
// svc.Params (both virtual parameters of a stateful service are its
// single real parameter).
func (w *reachWalker) realParam(p int) int {
	if w.stateful {
		return 0
	}
	return p
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
