package detectors

import (
	"fmt"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
	"github.com/dsn2015/vdbench/internal/workload"
)

// Metamorphic property: alpha-renaming every variable and parameter of a
// service must not change any tool's verdicts. Real tools violating this
// would be matching on identifier names — a classic benchmark-overfitting
// smell the harness must not reward.

// renameService produces a deep copy with params/vars renamed through the
// given mapping (identity for unmapped names).
func renameService(svc *svclang.Service, mapping map[string]string) *svclang.Service {
	ren := func(name string) string {
		if to, ok := mapping[name]; ok {
			return to
		}
		return name
	}
	var renameExpr func(e svclang.Expr) svclang.Expr
	renameExpr = func(e svclang.Expr) svclang.Expr {
		switch v := e.(type) {
		case svclang.Lit:
			return v
		case svclang.Ident:
			return svclang.Ident{Name: ren(v.Name)}
		case svclang.Call:
			args := make([]svclang.Expr, len(v.Args))
			for i, a := range v.Args {
				args[i] = renameExpr(a)
			}
			return svclang.Call{Fn: v.Fn, Args: args}
		default:
			return e
		}
	}
	var renameCond func(c svclang.Cond) svclang.Cond
	renameCond = func(c svclang.Cond) svclang.Cond {
		switch v := c.(type) {
		case svclang.Match:
			return svclang.Match{Expr: renameExpr(v.Expr), Class: v.Class}
		case svclang.Contains:
			return svclang.Contains{Expr: renameExpr(v.Expr), Needle: v.Needle}
		case svclang.Eq:
			return svclang.Eq{Expr: renameExpr(v.Expr), Value: v.Value}
		case svclang.Not:
			return svclang.Not{Inner: renameCond(v.Inner)}
		default:
			return c
		}
	}
	var renameStmts func(list []svclang.Stmt) []svclang.Stmt
	renameStmts = func(list []svclang.Stmt) []svclang.Stmt {
		out := make([]svclang.Stmt, len(list))
		for i, st := range list {
			switch v := st.(type) {
			case svclang.VarDecl:
				out[i] = svclang.VarDecl{Name: ren(v.Name)}
			case svclang.Assign:
				out[i] = svclang.Assign{Name: ren(v.Name), Expr: renameExpr(v.Expr)}
			case svclang.If:
				out[i] = svclang.If{
					Cond: renameCond(v.Cond),
					Then: renameStmts(v.Then),
					Else: renameStmts(v.Else),
				}
			case svclang.Repeat:
				out[i] = svclang.Repeat{Count: v.Count, Body: renameStmts(v.Body)}
			case svclang.Sink:
				out[i] = svclang.Sink{ID: v.ID, Kind: v.Kind, Expr: renameExpr(v.Expr), Silent: v.Silent}
			case svclang.Store:
				out[i] = svclang.Store{Key: v.Key, Expr: renameExpr(v.Expr)}
			default:
				out[i] = st
			}
		}
		return out
	}
	params := make([]string, len(svc.Params))
	for i, p := range svc.Params {
		params[i] = ren(p)
	}
	return &svclang.Service{
		Name:   svc.Name,
		Params: params,
		Body:   renameStmts(svc.Body),
	}
}

// collectNames gathers every declared name of a service.
func collectNames(svc *svclang.Service) []string {
	names := append([]string(nil), svc.Params...)
	var walk func(list []svclang.Stmt)
	walk = func(list []svclang.Stmt) {
		for _, st := range list {
			switch v := st.(type) {
			case svclang.VarDecl:
				names = append(names, v.Name)
			case svclang.If:
				walk(v.Then)
				walk(v.Else)
			case svclang.Repeat:
				walk(v.Body)
			}
		}
	}
	walk(svc.Body)
	return names
}

func TestToolsInvariantUnderAlphaRenaming(t *testing.T) {
	tools := []Tool{precise(), aggressive(), lite(), trueMatrix(), dfPrecise(), dfStateless(),
		NewSignatureSAST("sig"), deepPT(), fastPT()}
	for _, tpl := range workload.Templates() {
		for _, vulnerable := range []bool{false, true} {
			kind := tpl.Kinds[0]
			svc, _ := tpl.Build("orig", kind, vulnerable)
			truths, err := svclang.AnalyzeProbing(svc, reference.Probe)
			if err != nil {
				t.Fatal(err)
			}
			mapping := map[string]string{}
			for i, name := range collectNames(svc) {
				mapping[name] = fmt.Sprintf("zz_%d_%s", i, name)
			}
			renamed := renameService(svc, mapping)
			if err := renamed.Validate(); err != nil {
				t.Fatalf("%s: renamed service invalid: %v", tpl.Name, err)
			}
			renamedTruths, err := svclang.AnalyzeProbing(renamed, reference.Probe)
			if err != nil {
				t.Fatal(err)
			}
			// Oracle itself must be renaming-invariant.
			for i := range truths {
				if truths[i].Vulnerable != renamedTruths[i].Vulnerable {
					t.Fatalf("%s: oracle changed verdict under renaming", tpl.Name)
				}
			}
			origCase := workload.Case{Service: svc, Template: tpl.Name, Difficulty: tpl.Difficulty, Truths: truths}
			renCase := workload.Case{Service: renamed, Template: tpl.Name, Difficulty: tpl.Difficulty, Truths: renamedTruths}
			for _, tool := range tools {
				r1, err := tool.Analyze(origCase, stats.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				r2, err := tool.Analyze(renCase, stats.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				if len(r1) != len(r2) {
					t.Fatalf("%s on %s (vulnerable=%v): verdict count changed under renaming (%d vs %d)",
						tool.Name(), tpl.Name, vulnerable, len(r1), len(r2))
				}
				for i := range r1 {
					if r1[i].SinkID != r2[i].SinkID || r1[i].Kind != r2[i].Kind {
						t.Fatalf("%s on %s: report %d changed under renaming", tool.Name(), tpl.Name, i)
					}
				}
			}
		}
	}
}
