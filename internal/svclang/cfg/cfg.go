// Package cfg lowers svclang services into basic-block control-flow
// graphs. The graph is the substrate for fixpoint dataflow analyses (see
// internal/dataflow): structured control flow — branches, bounded loops,
// validate-and-reject idioms — becomes explicit blocks and edges, so an
// analysis only has to interpret straight-line instruction lists and join
// facts at merge points.
//
// The lowering preserves the observable semantics of the reference AST
// walker that the internal/detectors differential tests compare against,
// at parity options, and additionally records, as synthetic Refine
// instructions, the branch conditions that are known to hold on each
// edge. A path-sensitive analysis interprets those refinements (the
// walker's joined-environment traversal cannot express them); a
// path-insensitive one simply ignores them.
package cfg

import (
	"slices"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// Gate classifies a Refine instruction by the control-flow construct that
// justifies it.
type Gate int

const (
	// GateValidator marks a join-point refinement after a one-armed
	// validate-and-reject branch: exactly one arm always rejects, so on the
	// surviving path the branch condition is known with the recorded
	// polarity. This is the classic narrowing the reference walker also
	// performs.
	GateValidator Gate = iota + 1
	// GatePath marks a branch-edge refinement: the condition holds (or
	// fails) at the head of the then (or else) arm. Only a path-sensitive
	// analysis interprets these.
	GatePath
)

// String implements fmt.Stringer.
func (g Gate) String() string {
	switch g {
	case GateValidator:
		return "validator"
	case GatePath:
		return "path"
	default:
		return "gate(?)"
	}
}

// Refine is a synthetic instruction asserting that Cond evaluates to Holds
// when control reaches its position.
type Refine struct {
	Cond  svclang.Cond
	Holds bool
	Gate  Gate
}

// Instr is one element of a basic block: either a simple svclang statement
// (VarDecl, Assign, Store, Sink or Reject — never If or Repeat, which the
// lowering turns into edges) or a synthetic refinement. Exactly one field
// is set.
type Instr struct {
	Stmt   svclang.Stmt
	Refine *Refine
}

// Block is a basic block: a straight-line instruction list with a single
// entry and a successor set.
type Block struct {
	// ID indexes the block in Graph.Blocks.
	ID int
	// Instrs is the straight-line instruction list.
	Instrs []Instr
	// Succs lists successor block IDs in deterministic lowering order
	// (then before else, loop back edge before loop exit).
	Succs []int
}

// Options tune the lowering to match an analyser's capabilities.
type Options struct {
	// PruneConstantBranches lowers only the live arm of a constant
	// condition; the dead arm becomes an unreachable subgraph. Serves the
	// analyser's PruneDeadBranches knob, mirroring the reference walker.
	PruneConstantBranches bool
	// SkipLoops lowers repeat bodies as unreachable subgraphs, making loop
	// sinks invisible. Serves the analyser's !TrackLoops setting,
	// mirroring the reference walker.
	SkipLoops bool
}

// Graph is the control-flow graph of one service. Blocks[0] is the entry;
// blocks not reachable from it model code the analyser treats as dead
// (pruned branches, skipped loops, statements after a reject).
type Graph struct {
	// Service is the lowered service.
	Service *svclang.Service
	// Blocks lists every block, indexed by ID.
	Blocks []*Block
	// Vars lists every name the service can bind — parameters first, then
	// declared variables in lowering order — so an analysis can keep its
	// environment as a vector indexed by VarSlot.
	Vars []string
	// StoreKeys lists every session-store key the service writes, in
	// lowering order, indexed by StoreSlot.
	StoreKeys []string
}

// VarSlot returns the index of name in Vars, or -1 if the service never
// binds it. Services bind a handful of names, so a linear scan beats a
// map on both time and the memory each cached graph keeps live.
func (g *Graph) VarSlot(name string) int { return slices.Index(g.Vars, name) }

// StoreSlot returns the index of key in StoreKeys, or -1 if the service
// never writes it.
func (g *Graph) StoreSlot(key string) int { return slices.Index(g.StoreKeys, key) }

// NumNodes, Entry and Succs make *Graph satisfy the dataflow.Graph
// interface.

// NumNodes returns the number of blocks.
func (g *Graph) NumNodes() int { return len(g.Blocks) }

// Entry returns the entry block's ID (always 0).
func (g *Graph) Entry() int { return 0 }

// Succs returns the successor IDs of block n in lowering order. The
// slice is the block's own; callers must not modify it.
func (g *Graph) Succs(n int) []int { return g.Blocks[n].Succs }

// Build lowers a service into a control-flow graph under the given
// options. The lowering is total: every statement of the service appears
// in some block, though pruned branches, skipped loops and post-reject
// code end up in blocks unreachable from the entry.
func Build(svc *svclang.Service, opts Options) *Graph {
	b := &builder{
		g:    &Graph{Service: svc, Vars: append([]string(nil), svc.Params...)},
		opts: opts,
	}
	b.cur = b.newBlock()
	b.lowerStmts(svc.Body)
	return b.g
}

type builder struct {
	g    *Graph
	opts Options
	cur  *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to.ID)
}

func (b *builder) emit(in Instr) {
	switch s := in.Stmt.(type) {
	case svclang.VarDecl:
		if b.g.VarSlot(s.Name) < 0 {
			b.g.Vars = append(b.g.Vars, s.Name)
		}
	case svclang.Store:
		if b.g.StoreSlot(s.Key) < 0 {
			b.g.StoreKeys = append(b.g.StoreKeys, s.Key)
		}
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// lowerUnreachable lowers stmts into a fresh subgraph with no edge from
// the live flow, then restores the insertion point.
func (b *builder) lowerUnreachable(stmts []svclang.Stmt) {
	saved := b.cur
	b.cur = b.newBlock()
	b.lowerStmts(stmts)
	b.cur = saved
}

// lowerStmts lowers a statement list at the current insertion point. It
// returns true when every path through the list rejects, mirroring the
// walker's stmts(). After a rejecting statement the insertion point is an
// unreachable block, so the remaining statements — which the walker never
// analyses — lower into dead code automatically.
func (b *builder) lowerStmts(list []svclang.Stmt) bool {
	rejected := false
	for _, st := range list {
		if b.lowerStmt(st) {
			rejected = true
		}
	}
	return rejected
}

func (b *builder) lowerStmt(st svclang.Stmt) bool {
	switch v := st.(type) {
	case svclang.Reject:
		b.emit(Instr{Stmt: v})
		// No successors: the path dies here. Subsequent statements lower
		// into a fresh block that nothing links to.
		b.cur = b.newBlock()
		return true
	case svclang.If:
		return b.lowerIf(v)
	case svclang.Repeat:
		b.lowerRepeat(v)
		return false
	default:
		b.emit(Instr{Stmt: st})
		return false
	}
}

func (b *builder) lowerIf(v svclang.If) bool {
	if lit, ok := v.Cond.(svclang.BoolLit); ok && b.opts.PruneConstantBranches {
		live, dead := v.Then, v.Else
		if !lit.Value {
			live, dead = v.Else, v.Then
		}
		b.lowerUnreachable(dead)
		// The live arm continues in the current block chain, exactly as the
		// walker executes it inline.
		return b.lowerStmts(live)
	}
	pre := b.cur
	thenHead := b.newBlock()
	elseHead := b.newBlock()
	b.link(pre, thenHead)
	b.link(pre, elseHead)

	b.cur = thenHead
	b.emit(Instr{Refine: &Refine{Cond: v.Cond, Holds: true, Gate: GatePath}})
	thenRejects := b.lowerStmts(v.Then)
	thenExit := b.cur

	b.cur = elseHead
	b.emit(Instr{Refine: &Refine{Cond: v.Cond, Holds: false, Gate: GatePath}})
	elseRejects := b.lowerStmts(v.Else)
	elseExit := b.cur

	join := b.newBlock()
	switch {
	case thenRejects && elseRejects:
		// No surviving arm: the join is unreachable and the statement list
		// rejects as a whole.
		b.cur = join
		return true
	case thenRejects:
		b.link(elseExit, join)
		b.cur = join
		b.emit(Instr{Refine: &Refine{Cond: v.Cond, Holds: false, Gate: GateValidator}})
	case elseRejects:
		b.link(thenExit, join)
		b.cur = join
		b.emit(Instr{Refine: &Refine{Cond: v.Cond, Holds: true, Gate: GateValidator}})
	default:
		b.link(thenExit, join)
		b.link(elseExit, join)
		b.cur = join
	}
	return false
}

func (b *builder) lowerRepeat(v svclang.Repeat) {
	if b.opts.SkipLoops {
		b.lowerUnreachable(v.Body)
		return
	}
	if alwaysRejects(v.Body, b.opts.PruneConstantBranches) {
		// Every iteration path rejects. The walker runs one partial pass
		// and then conservatively continues after the loop with the state
		// it had when the rejecting statement was reached; lowerRejecting
		// reproduces that by edging the pre-reject block into the exit.
		after := b.newBlock()
		head := b.newBlock()
		b.link(b.cur, head)
		b.cur = head
		b.lowerRejectingBody(v.Body, after)
		b.cur = after
		return
	}
	head := b.newBlock()
	b.link(b.cur, head)
	b.cur = head
	b.lowerStmts(v.Body)
	after := b.newBlock()
	b.link(b.cur, head) // back edge: facts converge to the loop fixpoint
	b.link(b.cur, after)
	b.cur = after
}

// lowerRejectingBody lowers an always-rejecting loop body, routing the
// abstract state at the rejecting point to the loop exit. The rejecting
// point mirrors the walker: a plain reject carries the state after the
// statements before it (descending into pruned constant arms); a
// two-armed rejecting branch carries the state from before the branch.
func (b *builder) lowerRejectingBody(list []svclang.Stmt, after *Block) {
	for i, st := range list {
		switch v := st.(type) {
		case svclang.Reject:
			b.emit(Instr{Stmt: v})
			b.link(b.cur, after)
			b.lowerUnreachable(list[i+1:])
			return
		case svclang.If:
			if lit, ok := v.Cond.(svclang.BoolLit); ok && b.opts.PruneConstantBranches {
				live, dead := v.Then, v.Else
				if !lit.Value {
					live, dead = v.Else, v.Then
				}
				if alwaysRejects(live, true) {
					b.lowerUnreachable(dead)
					b.lowerRejectingBody(live, after)
					b.lowerUnreachable(list[i+1:])
					return
				}
			} else if alwaysRejects(v.Then, b.opts.PruneConstantBranches) &&
				alwaysRejects(v.Else, b.opts.PruneConstantBranches) {
				pre := b.cur
				b.lowerStmt(st)
				b.link(pre, after)
				b.lowerUnreachable(list[i+1:])
				return
			}
		}
		if b.lowerStmt(st) {
			// Unreached: the rejecting statements are handled above.
			return
		}
	}
}

// alwaysRejects reports whether every path through the list ends in a
// reject, mirroring the walker's dynamic result under the given pruning
// mode. Repeat never counts: the walker treats a rejecting loop body as
// "conservatively continue".
func alwaysRejects(list []svclang.Stmt, prune bool) bool {
	for _, st := range list {
		switch v := st.(type) {
		case svclang.Reject:
			return true
		case svclang.If:
			if lit, ok := v.Cond.(svclang.BoolLit); ok && prune {
				live := v.Then
				if !lit.Value {
					live = v.Else
				}
				if alwaysRejects(live, prune) {
					return true
				}
				continue
			}
			if alwaysRejects(v.Then, prune) && alwaysRejects(v.Else, prune) {
				return true
			}
		}
	}
	return false
}
