package detectors

import (
	"fmt"
	"sort"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// This file holds the reference AST walker: the static taint analyser the
// CFG engine in taintsast.go replaced. It stays as the oracle of the
// differential tests (TestDataflowMatchesWalker,
// TestPathSensitiveDivergences), which pin the engine report-identical to
// it at every shared knob setting with PathSensitive off. It shares
// evalExpr and absSource with the engine, so the two can only diverge
// through control flow.

// walkerSAST is a flow-sensitive, path-insensitive abstract interpreter
// over the mini-language's AST. It ignores TaintSASTConfig.PathSensitive.
type walkerSAST struct {
	cfg TaintSASTConfig
}

var _ Tool = (*walkerSAST)(nil)

// newWalkerSAST builds the reference walker with the given configuration.
func newWalkerSAST(cfg TaintSASTConfig) Tool {
	return &walkerSAST{cfg: cfg}
}

func (t *walkerSAST) Name() string { return t.cfg.Name }

func (t *walkerSAST) Class() Class { return ClassSAST }

// absEnv maps variable names to abstract values.
type absEnv map[string]absVal

func (e absEnv) clone() absEnv {
	out := make(absEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func (e absEnv) joinWith(other absEnv) {
	for k, v := range other {
		e[k] = e[k].join(v)
	}
}

// Analyze implements Tool.
func (t *walkerSAST) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	svc := cs.Service
	if svc == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", t.cfg.Name)
	}
	env := make(absEnv, len(svc.Params)+4)
	for _, p := range svc.Params {
		env[p] = absVal{dangerous: allKindsMask()}
	}
	st := &taintState{tool: t, svc: svc, found: map[int]Report{}, store: absEnv{}}
	// Stateful services need a second pass so that taint stored by "late"
	// statements reaches loads that appear earlier in the body (a load in
	// request N observes what request N-1 stored). The store state is the
	// only thing carried between passes; the variable environment restarts,
	// exactly as it does per request at runtime.
	passes := 1
	if t.cfg.TrackStores && svc.UsesStore() {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		passEnv := env.clone()
		st.stmts(svc.Body, passEnv)
	}
	reports := make([]Report, 0, len(st.found))
	for _, r := range st.found {
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].SinkID < reports[j].SinkID })
	return reports, nil
}

type taintState struct {
	tool  *walkerSAST
	svc   *svclang.Service
	found map[int]Report
	// store is the abstract session store, keyed by store key; it persists
	// across analysis passes (weak updates only).
	store absEnv
	// curEnv is the environment the expression under evaluation reads
	// from; expr sets it before handing the state to evalExpr (the
	// absSource seam).
	curEnv absEnv
}

var _ absSource = (*taintState)(nil)

func (s *taintState) varAbs(name string) absVal  { return s.curEnv[name] }
func (s *taintState) storeAbs(key string) absVal { return s.store[key] }

// stmts analyses a statement list under env, mutating env in place. It
// returns true when the list always rejects (every path ends in Reject).
func (s *taintState) stmts(list []svclang.Stmt, env absEnv) bool {
	for _, st := range list {
		if s.stmt(st, env) {
			return true
		}
	}
	return false
}

func (s *taintState) stmt(st svclang.Stmt, env absEnv) bool {
	switch v := st.(type) {
	case svclang.VarDecl:
		env[v.Name] = absVal{}
	case svclang.Assign:
		env[v.Name] = s.expr(v.Expr, env)
	case svclang.Reject:
		return true
	case svclang.Store:
		if s.tool.cfg.TrackStores {
			val := s.expr(v.Expr, env)
			s.store[v.Key] = s.store[v.Key].join(val)
		}
	case svclang.Sink:
		val := s.expr(v.Expr, env)
		if val.dangerous&maskOf(v.Kind) != 0 {
			conf := 0.9
			if val.sanitized {
				// The value passed a sanitizer yet remains dangerous:
				// report with lower confidence, as real tools do for
				// "possibly insufficient sanitisation" findings.
				conf = 0.6
			}
			if _, dup := s.found[v.ID]; !dup {
				s.found[v.ID] = Report{
					Service:    s.svc.Name,
					SinkID:     v.ID,
					Kind:       v.Kind,
					Confidence: conf,
				}
			}
		}
	case svclang.Repeat:
		if !s.tool.cfg.TrackLoops {
			return false // loop body invisible to the analyser
		}
		// Three passes reach the fixpoint for this finite lattice and the
		// assignment chains the language allows; sinks are recorded on
		// every pass (deduplicated by ID).
		for i := 0; i < 3; i++ {
			if s.stmts(v.Body, env) {
				return false // reject inside a loop: conservatively continue
			}
		}
	case svclang.If:
		// Constant conditions: a pruning analyser follows only the live
		// branch.
		if lit, ok := v.Cond.(svclang.BoolLit); ok && s.tool.cfg.PruneDeadBranches {
			if lit.Value {
				return s.stmts(v.Then, env)
			}
			return s.stmts(v.Else, env)
		}
		thenEnv := env.clone()
		elseEnv := env.clone()
		thenRejects := s.stmts(v.Then, thenEnv)
		elseRejects := s.stmts(v.Else, elseEnv)
		switch {
		case thenRejects && elseRejects:
			return true
		case thenRejects:
			replace(env, elseEnv)
			s.applyValidator(v.Cond, false, env)
		case elseRejects:
			replace(env, thenEnv)
			s.applyValidator(v.Cond, true, env)
		default:
			replace(env, thenEnv)
			env.joinWith(elseEnv)
		}
	}
	return false
}

// replace overwrites dst with src in place.
func replace(dst, src absEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// applyValidator narrows the environment after a validate-and-reject
// pattern: when the surviving path implies matches(x, class), variable x
// is clean. condHolds states whether the condition is true on the
// surviving path.
func (s *taintState) applyValidator(cond svclang.Cond, condHolds bool, env absEnv) {
	if !s.tool.cfg.ValidatorAware {
		return
	}
	// Peel negations, flipping the polarity.
	for {
		if n, ok := cond.(svclang.Not); ok {
			cond = n.Inner
			condHolds = !condHolds
			continue
		}
		break
	}
	m, ok := cond.(svclang.Match)
	if !ok || !condHolds {
		return
	}
	id, ok := m.Expr.(svclang.Ident)
	if !ok {
		return
	}
	env[id.Name] = absVal{}
}

// expr computes the abstract value of an expression.
func (s *taintState) expr(e svclang.Expr, env absEnv) absVal {
	s.curEnv = env
	return evalExpr(s.tool.cfg, e, s)
}
