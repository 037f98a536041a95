package detectors

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dsn2015/vdbench/internal/dataflow"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/workload"
)

// TaintSASTConfig sets the precision knobs of the static taint analyser.
// Each knob corresponds to a capability real static analysis tools differ
// on; disabling it reproduces the matching class of wrong results.
type TaintSASTConfig struct {
	// Name is the tool's display name.
	Name string
	// SinkAware: the analyser models sanitizer adequacy per sink kind.
	// When false, any sanitizer clears taint for every kind — producing
	// false negatives on wrong-sanitizer flows.
	SinkAware bool
	// DiagonalAdequacy: the analyser uses the naive one-sanitizer-per-kind
	// matrix instead of the true adequacy relation. It then reports quoted
	// SQL/XPath behind quote-encoding sanitizers — false positives on
	// accidentally-safe code. Only meaningful when SinkAware is true.
	DiagonalAdequacy bool
	// ValidatorAware: the analyser recognises the validate-and-reject
	// idiom and clears taint on the validated variable. When false it
	// reports validated flows — false positives.
	ValidatorAware bool
	// PruneDeadBranches: the analyser evaluates constant conditions and
	// skips unreachable code. When false it reports sinks in dead branches
	// — false positives.
	PruneDeadBranches bool
	// TrackLoops: the analyser propagates taint through repeat bodies.
	// When false it skips loop bodies entirely — false negatives on
	// loop-carried flows.
	TrackLoops bool
	// TrackStores: the analyser models the session store, propagating
	// taint from store statements to load expressions across requests.
	// When false every load reads as clean — false negatives on
	// second-order (stored) flows.
	TrackStores bool
	// PathSensitive: the analyser interprets branch conditions along CFG
	// edges — a variable that passed matches()/eq() validation is clean on
	// the holding edge, and edges contradicting a constant condition are
	// infeasible. When false, taint from both arms of a branch is joined
	// before any sink inside them is judged, as a joined-environment
	// walker would — false positives on validated in-branch splices.
	// Refinement only ever removes reports, never adds them.
	PathSensitive bool
}

// taintSAST is a flow-sensitive taint analyser built the way industrial
// SAST engines are: the service is lowered to a basic-block CFG
// (internal/svclang/cfg) and taint facts are propagated to a worklist
// fixpoint (internal/dataflow) with joins at merge points and convergence
// around loops.
type taintSAST struct {
	cfg TaintSASTConfig
	// cache, when non-nil, memoises the lowered CFG per (service,
	// options) across every cache-bound tool in a campaign. nil builds
	// directly; reports are identical either way.
	cache *cfg.Cache
	// reports memoises the reports of each distinct service body on a
	// campaign-bound clone (see WithCompileCache); nil on a constructed
	// tool, which analyses every case.
	reports *reportMemo
}

var _ Tool = (*taintSAST)(nil)
var _ CompileCacheable = (*taintSAST)(nil)

// NewTaintSAST builds a static taint analyser with the given
// configuration.
func NewTaintSAST(config TaintSASTConfig) Tool {
	return &taintSAST{cfg: config}
}

// WithCompileCache implements CompileCacheable. The clone also
// memoises its reports per service body, so a renamed copy of a body
// reaches neither the cache nor the solver.
func (t *taintSAST) WithCompileCache(cc *cfg.Cache) Tool {
	clone := *t
	clone.cache = cc
	clone.reports = newReportMemo(clone.analyze)
	return &clone
}

func (t *taintSAST) Name() string { return t.cfg.Name }

func (t *taintSAST) Class() Class { return ClassSAST }

// kindMask is a bitset over sink kinds.
type kindMask uint8

func maskOf(k svclang.SinkKind) kindMask { return 1 << uint(k) }

func allKindsMask() kindMask {
	var m kindMask
	for _, k := range svclang.AllSinkKinds() {
		m |= maskOf(k)
	}
	return m
}

// absVal is the abstract value of an expression: the set of sink kinds it
// is dangerous for, plus whether any sanitizer touched it (used for
// confidence scoring).
type absVal struct {
	dangerous kindMask
	sanitized bool
}

func (a absVal) join(b absVal) absVal {
	return absVal{dangerous: a.dangerous | b.dangerous, sanitized: a.sanitized || b.sanitized}
}

// absSource abstracts where evalExpr reads variable and session-store
// state from: the engine keeps slot vectors, the reference walker the
// differential tests compare against keeps map environments.
// Implementations are pointer receivers carrying a "current environment"
// field, so sharing the evaluator costs no allocation per expression.
type absSource interface {
	varAbs(name string) absVal
	storeAbs(key string) absVal
}

// sanitizesUnder applies the configured adequacy model. It is shared by
// the engine and the reference walker, which must agree on expression
// semantics exactly (the differential tests pin this).
func (cfg TaintSASTConfig) sanitizesUnder(b svclang.Builtin, k svclang.SinkKind) bool {
	if !cfg.SinkAware {
		// Any sanitizer is believed to clear everything.
		return b.IsSanitizer()
	}
	if cfg.DiagonalAdequacy {
		switch b {
		case svclang.BuiltinNumeric:
			return true
		case svclang.BuiltinEscapeSQL:
			return k == svclang.SinkSQL
		case svclang.BuiltinEscapeXPath:
			return k == svclang.SinkXPath
		case svclang.BuiltinEscapeHTML:
			return k == svclang.SinkHTML
		case svclang.BuiltinEscapeShell:
			return k == svclang.SinkCmd
		case svclang.BuiltinSanitizePath:
			return k == svclang.SinkPath
		default:
			return false
		}
	}
	return b.Sanitizes(k)
}

// evalExpr computes the abstract value of an expression under the
// variable environment and abstract session store exposed by src. The
// engine and the reference walker share this definition, so any report
// divergence between them can only come from control flow, never from
// expression semantics.
func evalExpr(cfg TaintSASTConfig, e svclang.Expr, src absSource) absVal {
	switch v := e.(type) {
	case svclang.Lit:
		return absVal{}
	case svclang.Ident:
		return src.varAbs(v.Name)
	case svclang.LoadExpr:
		if !cfg.TrackStores {
			return absVal{} // blind to stored data
		}
		return src.storeAbs(v.Key)
	case svclang.Call:
		switch v.Fn {
		case svclang.BuiltinConcat:
			var out absVal
			for _, a := range v.Args {
				out = out.join(evalExpr(cfg, a, src))
			}
			return out
		case svclang.BuiltinUpper, svclang.BuiltinTrim:
			return evalExpr(cfg, v.Args[0], src)
		default:
			in := evalExpr(cfg, v.Args[0], src)
			out := absVal{sanitized: true}
			for _, k := range svclang.AllSinkKinds() {
				if in.dangerous&maskOf(k) != 0 && !cfg.sanitizesUnder(v.Fn, k) {
					out.dangerous |= maskOf(k)
				}
			}
			return out
		}
	default:
		return absVal{dangerous: allKindsMask()} // unknown node: be conservative
	}
}

// taintFact is the dataflow fact: live marks reachable-so-far code (the
// lattice bottom is the unreached fact), vars is the abstract variable
// environment as a slot vector — one absVal (a kind bitset plus the
// sanitized flag) per name the service binds, indexed by cfg.Graph.VarSlot.
// Joining and comparing are elementwise loops over a few machine words and
// cloning a fact is one slice copy.
type taintFact struct {
	live bool
	vars []absVal
}

// taintLattice is the join-semilattice over taintFact. Facts are treated
// as immutable: Join returns fresh state and the transfer function clones
// before mutating.
type taintLattice struct{}

var _ dataflow.Lattice[taintFact] = taintLattice{}

func (taintLattice) Bottom() taintFact { return taintFact{} }

func (taintLattice) Join(a, b taintFact) taintFact {
	switch {
	case !a.live:
		return b
	case !b.live:
		return a
	}
	n := len(a.vars)
	if len(b.vars) > n {
		n = len(b.vars)
	}
	vars := make([]absVal, n)
	copy(vars, a.vars)
	for i, v := range b.vars {
		vars[i] = vars[i].join(v)
	}
	return taintFact{live: true, vars: vars}
}

func (taintLattice) Equal(a, b taintFact) bool {
	if a.live != b.live {
		return false
	}
	if !a.live {
		return true
	}
	// Slots past a vector's end read as the zero value, so a short vector
	// and its zero-padded extension are the same environment.
	long, short := a.vars, b.vars
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, v := range short {
		if long[i] != v {
			return false
		}
	}
	for _, v := range long[len(short):] {
		if v != (absVal{}) {
			return false
		}
	}
	return true
}

// Analyze implements Tool. A campaign-bound tool analyses each distinct
// body once.
func (t *taintSAST) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	svc := cs.Service
	if svc == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", t.cfg.Name)
	}
	if t.reports == nil {
		return t.analyze(svc, cs.Digest())
	}
	return t.reports.reports(cs.Digest(), svc)
}

// analyze solves the taint dataflow of svc, whose digest is d; it never
// fails.
func (t *taintSAST) analyze(svc *svclang.Service, d svclang.Digest) ([]Report, error) {
	g := t.cache.Build(svc, d, cfg.Options{
		PruneConstantBranches: t.cfg.PruneDeadBranches,
		SkipLoops:             !t.cfg.TrackLoops,
	})
	run := newDataflowRun(t, svc.Name, g)
	// Stateful services need a second pass: a load in request N observes
	// what request N-1 stored, so pass 2 reads the store image
	// accumulated by pass 1. Within a pass the store snapshot is fixed
	// (writes land in the next pass's image), which keeps the transfer
	// function monotone during the solve. The variable environment
	// restarts each pass, exactly as it does per request at runtime. A
	// service that writes no key would replay pass 1 exactly, so it gets
	// one pass.
	passes := 1
	if t.cfg.TrackStores && len(g.StoreKeys) > 0 {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		run.nextStore = append([]absVal(nil), run.store...)
		dataflow.Solve[taintFact](g, taintLattice{}, run.entryFact(),
			func(n int, in taintFact) taintFact {
				return run.transfer(g.Blocks[n], in)
			})
		run.store = run.nextStore
	}
	slices.SortFunc(run.found, func(a, b Report) int { return cmp.Compare(a.SinkID, b.SinkID) })
	return run.found, nil
}

// dataflowRun is the per-analysis state shared across solver passes.
type dataflowRun struct {
	tool *taintSAST
	name string // the analysed service's name; g may be a renamed copy's
	g    *cfg.Graph
	// found holds one report per flagged sink, in discovery order.
	found []Report
	// store is the read snapshot for the current pass, indexed by
	// cfg.Graph.StoreSlot; nextStore accumulates writes (weak joins) for
	// the following pass.
	store     []absVal
	nextStore []absVal
	// curVars is the environment the statement being transferred reads
	// from; transfer sets it before interpreting a block (the absSource
	// seam shared with the reference walker's evalExpr). owned reports
	// whether the block has cloned it from its in-fact yet.
	curVars []absVal
	owned   bool
}

var _ absSource = (*dataflowRun)(nil)

func newDataflowRun(t *taintSAST, name string, g *cfg.Graph) *dataflowRun {
	return &dataflowRun{
		tool:  t,
		name:  name,
		g:     g,
		store: make([]absVal, len(g.StoreKeys)),
	}
}

// entryFact is the state at the service entry: every parameter (the
// first slots of the graph's Vars) is attacker-controlled for every sink
// kind, every declared variable is clean.
func (r *dataflowRun) entryFact() taintFact {
	vars := make([]absVal, len(r.g.Vars))
	for i := range r.g.Service.Params {
		vars[i] = absVal{dangerous: allKindsMask()}
	}
	return taintFact{live: true, vars: vars}
}

func (r *dataflowRun) varAbs(name string) absVal {
	if i := r.g.VarSlot(name); i >= 0 {
		return r.curVars[i]
	}
	return absVal{}
}

func (r *dataflowRun) storeAbs(key string) absVal {
	if i := r.g.StoreSlot(key); i >= 0 {
		return r.store[i]
	}
	return absVal{}
}

// transfer interprets one basic block. Sinks are recorded as a side
// effect with first-report-wins deduplication: the solver's reverse-
// postorder worklist evaluates each block first with its earliest
// (smallest) in-fact, so the recorded confidence matches the reference
// walker's first-pass recording.
func (r *dataflowRun) transfer(blk *cfg.Block, in taintFact) taintFact {
	if !in.live {
		return taintFact{}
	}
	// Facts are immutable, so the block starts by reading in's vector and
	// setVar clones it on the first write that changes a slot; a block
	// that changes nothing passes its in-fact through without allocating.
	// A vector shorter than the slot count (slots past its end are the
	// zero value by the lattice's convention) is zero-extended up front.
	r.curVars, r.owned = in.vars, false
	if len(in.vars) < len(r.g.Vars) {
		r.curVars, r.owned = make([]absVal, len(r.g.Vars)), true
		copy(r.curVars, in.vars)
	}
	for _, instr := range blk.Instrs {
		if instr.Refine != nil {
			if !r.refine(*instr.Refine) {
				return taintFact{} // infeasible edge: the path is dead
			}
			continue
		}
		switch v := instr.Stmt.(type) {
		case svclang.VarDecl:
			r.setVar(v.Name, absVal{})
		case svclang.Assign:
			r.setVar(v.Name, r.eval(v.Expr))
		case svclang.Store:
			if r.tool.cfg.TrackStores {
				val := r.eval(v.Expr)
				i := r.g.StoreSlot(v.Key)
				r.nextStore[i] = r.nextStore[i].join(val)
			}
		case svclang.Sink:
			val := r.eval(v.Expr)
			if val.dangerous&maskOf(v.Kind) != 0 {
				conf := 0.9
				if val.sanitized {
					// The value passed a sanitizer yet remains dangerous:
					// report with lower confidence, as real tools do for
					// "possibly insufficient sanitisation" findings.
					conf = 0.6
				}
				if !slices.ContainsFunc(r.found, func(rep Report) bool { return rep.SinkID == v.ID }) {
					r.found = append(r.found, Report{
						Service:    r.name,
						SinkID:     v.ID,
						Kind:       v.Kind,
						Confidence: conf,
					})
				}
			}
		case svclang.Reject:
			// Terminator: the block has no fallthrough successor (or, for
			// an always-rejecting loop body, flows its state to the loop
			// exit), so nothing to do here.
		}
	}
	return taintFact{live: true, vars: r.curVars}
}

func (r *dataflowRun) eval(e svclang.Expr) absVal {
	return evalExpr(r.tool.cfg, e, r)
}

// setVar clears or sets a named slot of the block's environment, cloning
// the in-fact's vector first if the block does not own it yet; every name
// a validated service assigns is a parameter or declared, so the lookup
// cannot miss.
func (r *dataflowRun) setVar(name string, v absVal) {
	i := r.g.VarSlot(name)
	if r.curVars[i] == v {
		return
	}
	if !r.owned {
		r.curVars, r.owned = slices.Clone(r.curVars), true
	}
	r.curVars[i] = v
}

// refine interprets a synthetic Refine instruction against the block's
// environment, updating it through setVar. It returns false when the
// refinement proves the edge infeasible.
func (r *dataflowRun) refine(ref cfg.Refine) bool {
	cond, holds := ref.Cond, ref.Holds
	// Peel negations, flipping the polarity.
	for {
		n, ok := cond.(svclang.Not)
		if !ok {
			break
		}
		cond = n.Inner
		holds = !holds
	}
	switch ref.Gate {
	case cfg.GateValidator:
		// Join-point narrowing after validate-and-reject: on the surviving
		// path a matches() condition holds, so the validated variable is
		// clean. Path-insensitive analysers perform this too.
		if !r.tool.cfg.ValidatorAware {
			return true
		}
		m, ok := cond.(svclang.Match)
		if !ok || !holds {
			return true
		}
		if id, ok := m.Expr.(svclang.Ident); ok {
			r.setVar(id.Name, absVal{})
		}
	case cfg.GatePath:
		if !r.tool.cfg.PathSensitive {
			return true
		}
		switch c := cond.(type) {
		case svclang.BoolLit:
			// An edge contradicting a constant condition is infeasible.
			return c.Value == holds
		case svclang.Match:
			// On the holding edge the variable passed class validation:
			// its content is inert in every sink context the workload
			// uses. The failing edge tells us nothing (the value is merely
			// not all-in-class).
			if holds {
				if id, ok := c.Expr.(svclang.Ident); ok {
					r.setVar(id.Name, absVal{})
				}
			}
		case svclang.Eq:
			// On the holding edge the variable equals a program literal,
			// so the attacker no longer controls it.
			if holds {
				if id, ok := c.Expr.(svclang.Ident); ok {
					r.setVar(id.Name, absVal{})
				}
			}
		}
	}
	return true
}
