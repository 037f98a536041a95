package cfg_test

import (
	"slices"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
)

func ident(name string) svclang.Ident { return svclang.Ident{Name: name} }

func sink(id int) svclang.Sink {
	return svclang.Sink{ID: id, Kind: svclang.SinkSQL, Expr: ident("x")}
}

// sinkBlock returns the ID of the block holding sink id, or -1 if no
// block does.
func sinkBlock(g *cfg.Graph, id int) int {
	for _, blk := range g.Blocks {
		for _, in := range blk.Instrs {
			if s, ok := in.Stmt.(svclang.Sink); ok && s.ID == id {
				return blk.ID
			}
		}
	}
	return -1
}

// reachable returns the set of block IDs reachable from the entry.
func reachable(g *cfg.Graph) map[int]bool {
	seen := map[int]bool{}
	stack := []int{g.Entry()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.Succs(n)...)
	}
	return seen
}

func TestStraightLineSingleBlock(t *testing.T) {
	svc := &svclang.Service{
		Name:   "straight",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.Assign{Name: "y", Expr: ident("x")},
			sink(0),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	if g.NumNodes() != 1 {
		t.Fatalf("straight-line service lowered to %d blocks, want 1", g.NumNodes())
	}
	if got := sinkBlock(g, 0); got != 0 {
		t.Fatalf("sink 0 in block %d, want entry", got)
	}
	if len(g.Succs(0)) != 0 {
		t.Fatalf("exit block has successors %v", g.Succs(0))
	}
}

func TestBranchLoweringShape(t *testing.T) {
	svc := &svclang.Service{
		Name:   "branch",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.If{
				Cond: svclang.Match{Expr: ident("x"), Class: svclang.ClassAlnum},
				Then: []svclang.Stmt{sink(0)},
				Else: []svclang.Stmt{sink(1)},
			},
			sink(2),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	entrySuccs := g.Succs(g.Entry())
	if len(entrySuccs) != 2 {
		t.Fatalf("branch head has %d successors, want 2", len(entrySuccs))
	}
	thenID, elseID := entrySuccs[0], entrySuccs[1]
	if sinkBlock(g, 0) != thenID || sinkBlock(g, 1) != elseID {
		t.Fatalf("sink provenance: got then=%d else=%d, sinks in %d and %d",
			thenID, elseID, sinkBlock(g, 0), sinkBlock(g, 1))
	}
	// Both arms open with a GatePath refinement of opposite polarity.
	thenRef := g.Blocks[thenID].Instrs[0].Refine
	elseRef := g.Blocks[elseID].Instrs[0].Refine
	if thenRef == nil || elseRef == nil {
		t.Fatal("branch arms missing edge refinements")
	}
	if thenRef.Gate != cfg.GatePath || !thenRef.Holds || elseRef.Gate != cfg.GatePath || elseRef.Holds {
		t.Fatalf("refinement polarity wrong: then=%+v else=%+v", thenRef, elseRef)
	}
	// Both arms converge on the join block holding sink 2.
	join := sinkBlock(g, 2)
	if got := g.Succs(thenID); len(got) != 1 || got[0] != join {
		t.Fatalf("then arm succs = %v, want [%d]", got, join)
	}
	if got := g.Succs(elseID); len(got) != 1 || got[0] != join {
		t.Fatalf("else arm succs = %v, want [%d]", got, join)
	}
}

func TestValidateAndRejectRefinesJoin(t *testing.T) {
	svc := &svclang.Service{
		Name:   "validate",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.If{
				Cond: svclang.Not{Inner: svclang.Match{Expr: ident("x"), Class: svclang.ClassAlnum}},
				Then: []svclang.Stmt{svclang.Reject{}},
			},
			sink(0),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	join := g.Blocks[sinkBlock(g, 0)]
	ref := join.Instrs[0].Refine
	if ref == nil || ref.Gate != cfg.GateValidator {
		t.Fatalf("join block lacks validator refinement: %+v", join.Instrs[0])
	}
	// The then-arm rejected, so the surviving polarity is "condition false".
	if ref.Holds {
		t.Fatal("validator refinement polarity: want Holds=false (else survives)")
	}
	// The rejecting arm must not reach the join.
	seen := reachable(g)
	if !seen[join.ID] {
		t.Fatal("join unreachable")
	}
	for id := range seen {
		for _, in := range g.Blocks[id].Instrs {
			if _, ok := in.Stmt.(svclang.Reject); ok {
				if len(g.Succs(id)) != 0 {
					t.Fatalf("reject block %d has successors %v", id, g.Succs(id))
				}
			}
		}
	}
}

func TestPostRejectCodeUnreachable(t *testing.T) {
	svc := &svclang.Service{
		Name:   "dead",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.Reject{},
			sink(0),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	blk := sinkBlock(g, 0)
	if blk < 0 {
		t.Fatal("lowering dropped the post-reject sink; it must stay total")
	}
	if reachable(g)[blk] {
		t.Fatal("post-reject sink reachable from entry")
	}
}

func TestConstantBranchPruning(t *testing.T) {
	svc := &svclang.Service{
		Name:   "constif",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.If{
				Cond: svclang.BoolLit{Value: false},
				Then: []svclang.Stmt{sink(0)},
				Else: []svclang.Stmt{sink(1)},
			},
		},
	}
	pruned := cfg.Build(svc, cfg.Options{PruneConstantBranches: true})
	seen := reachable(pruned)
	if seen[sinkBlock(pruned, 0)] {
		t.Fatal("pruned dead arm still reachable")
	}
	if !seen[sinkBlock(pruned, 1)] {
		t.Fatal("live arm of pruned constant branch unreachable")
	}
	// Without pruning, both arms are ordinary branch targets.
	plain := cfg.Build(svc, cfg.Options{})
	seen = reachable(plain)
	if !seen[sinkBlock(plain, 0)] || !seen[sinkBlock(plain, 1)] {
		t.Fatal("unpruned constant branch lost an arm")
	}
}

func TestLoopLowering(t *testing.T) {
	svc := &svclang.Service{
		Name:   "loop",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.Repeat{Count: 3, Body: []svclang.Stmt{
				svclang.Assign{Name: "y", Expr: ident("x")},
				sink(0),
			}},
			sink(1),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	body := sinkBlock(g, 0)
	succs := g.Succs(body)
	if len(succs) != 2 {
		t.Fatalf("loop body exit has %d successors, want back edge + exit", len(succs))
	}
	// Back edge first (lowering order), exit second.
	if succs[0] != body {
		t.Fatalf("first successor %d is not the back edge to %d", succs[0], body)
	}
	if succs[1] != sinkBlock(g, 1) {
		t.Fatalf("loop exit %d does not hold sink 1 (block %d)", succs[1], sinkBlock(g, 1))
	}

	skipped := cfg.Build(svc, cfg.Options{SkipLoops: true})
	seen := reachable(skipped)
	if seen[sinkBlock(skipped, 0)] {
		t.Fatal("skipped loop body reachable")
	}
	if !seen[sinkBlock(skipped, 1)] {
		t.Fatal("code after skipped loop unreachable")
	}
}

func TestRejectingLoopBodyRoutesToExit(t *testing.T) {
	svc := &svclang.Service{
		Name:   "rejectloop",
		Params: []string{"x"},
		Body: []svclang.Stmt{
			svclang.Repeat{Count: 2, Body: []svclang.Stmt{
				svclang.Assign{Name: "y", Expr: ident("x")},
				svclang.Reject{},
				sink(0),
			}},
			sink(1),
		},
	}
	g := cfg.Build(svc, cfg.Options{})
	seen := reachable(g)
	if seen[sinkBlock(g, 0)] {
		t.Fatal("post-reject loop sink reachable")
	}
	if !seen[sinkBlock(g, 1)] {
		t.Fatal("loop exit unreachable: rejecting body must still flow to the exit")
	}
}

func TestSlotTables(t *testing.T) {
	svc := &svclang.Service{
		Name:   "slots",
		Params: []string{"x", "y"},
		Body: []svclang.Stmt{
			svclang.VarDecl{Name: "a"},
			svclang.Store{Key: "k1", Expr: ident("x")},
			svclang.If{
				Cond: svclang.BoolLit{Value: false},
				Then: []svclang.Stmt{svclang.VarDecl{Name: "dead"}, svclang.Store{Key: "k2", Expr: ident("y")}},
			},
			svclang.Repeat{Count: 2, Body: []svclang.Stmt{svclang.VarDecl{Name: "b"}, svclang.Store{Key: "k1", Expr: ident("a")}}},
		},
	}
	// Pruned and skipped code still binds its names: the tables are a
	// function of the service alone, identical under every option set.
	for _, opts := range []cfg.Options{{}, {PruneConstantBranches: true, SkipLoops: true}} {
		g := cfg.Build(svc, opts)
		if want := []string{"x", "y", "a", "dead", "b"}; !slices.Equal(g.Vars, want) {
			t.Fatalf("%+v: Vars = %v, want %v", opts, g.Vars, want)
		}
		if want := []string{"k1", "k2"}; !slices.Equal(g.StoreKeys, want) {
			t.Fatalf("%+v: StoreKeys = %v, want %v", opts, g.StoreKeys, want)
		}
		if g.VarSlot("b") != 4 || g.VarSlot("nope") != -1 {
			t.Fatalf("%+v: VarSlot(b) = %d, VarSlot(nope) = %d", opts, g.VarSlot("b"), g.VarSlot("nope"))
		}
		if g.StoreSlot("k2") != 1 || g.StoreSlot("k3") != -1 {
			t.Fatalf("%+v: StoreSlot(k2) = %d, StoreSlot(k3) = %d", opts, g.StoreSlot("k2"), g.StoreSlot("k3"))
		}
	}
}
