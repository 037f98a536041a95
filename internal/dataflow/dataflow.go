// Package dataflow implements a generic monotone dataflow framework: a
// join-semilattice interface and a worklist fixpoint solver over an
// arbitrary directed graph. It is the engine room for CFG-based analyses
// (see internal/svclang/cfg and the detectors taint analyser): the client
// supplies the lattice and a monotone transfer function, the solver
// iterates to the least fixpoint, joining facts at merge points and
// converging around loops instead of relying on a fixed pass count.
//
// The solver is deterministic: the worklist is ordered by reverse
// postorder, so identical inputs produce identical visit sequences and —
// because transfer functions may carry deterministic side effects such as
// report recording — identical outputs.
package dataflow

import (
	"fmt"
	"math/bits"
	"slices"
)

// Lattice describes a join-semilattice over facts of type T. Join must be
// commutative, associative and idempotent (the property tests in
// internal/detectors check this for the taint lattice), must treat
// Bottom() as its identity, and must not mutate its arguments.
type Lattice[T any] interface {
	// Bottom returns the least element: the fact for unreached code.
	Bottom() T
	// Join returns the least upper bound of a and b without mutating
	// either.
	Join(a, b T) T
	// Equal reports whether two facts are identical.
	Equal(a, b T) bool
}

// Graph is the shape the solver needs: a finite node set, a distinguished
// entry, and successor edges. *cfg.Graph satisfies it.
type Graph interface {
	// NumNodes returns the number of nodes; node IDs are 0..NumNodes()-1.
	NumNodes() int
	// Entry returns the entry node's ID.
	Entry() int
	// Succs returns the successors of node n in deterministic order.
	Succs(n int) []int
}

// Transfer computes the out-fact of node n from its in-fact. It must be
// monotone (a larger in-fact never yields a smaller out-fact) and must not
// mutate in; side effects must be deterministic functions of (n, in).
type Transfer[T any] func(n int, in T) T

// Result carries the fixpoint solution.
type Result[T any] struct {
	// In and Out hold the per-node facts, indexed by node ID. Nodes not
	// reachable from the entry keep Bottom and are never visited.
	In, Out []T
	// Visits counts transfer evaluations. For a monotone transfer over a
	// lattice of height h the solver needs at most NumNodes·(h+1) of them;
	// the property tests pin this bound on generated workloads.
	Visits int
}

// visitBudget bounds transfer evaluations per node as a runaway guard: a
// non-monotone transfer (a client bug) could otherwise oscillate forever.
// Far above the height of any lattice used in this module.
const visitBudget = 1 << 12

// Solve iterates the transfer function to the least fixpoint. The entry
// node starts from entryFact; every other node starts from Bottom and is
// only evaluated once some predecessor's out-fact reaches it, so
// unreachable nodes are never visited. Nodes are drained in reverse
// postorder, which reaches loop fixpoints with the fewest re-visits and
// makes the visit sequence deterministic.
//
// Solve panics if any node is evaluated more than visitBudget times; that
// only happens when the transfer function is not monotone.
func Solve[T any](g Graph, lat Lattice[T], entryFact T, f Transfer[T]) Result[T] {
	n := g.NumNodes()
	facts := make([]T, 2*n)
	res := Result[T]{In: facts[:n:n], Out: facts[n:]}
	for i := 0; i < n; i++ {
		res.In[i] = lat.Bottom()
		res.Out[i] = lat.Bottom()
	}
	if n == 0 {
		return res
	}

	// pos maps node IDs to reverse-postorder positions (-1 for nodes the
	// entry cannot reach); pending is a packed bitset over those
	// positions, so "earliest pending node in RPO" is a trailing-zeros
	// scan over a few words instead of a linear walk of the order slice.
	// pos, the visit counters and the order share one allocation; the
	// bitset lives on the stack for graphs of up to 256 nodes.
	ints := make([]int, 3*n)
	pos, visitsPerNode := ints[:n:n], ints[n:2*n:2*n]
	order := rpo(g, pos, ints[2*n:2*n])
	entry := g.Entry()
	res.In[entry] = entryFact

	var small [4]uint64
	pending := small[:]
	if words := (len(order) + 63) / 64; words <= len(small) {
		pending = small[:words]
	} else {
		pending = make([]uint64, words)
	}
	pending[pos[entry]>>6] |= 1 << (uint(pos[entry]) & 63)
	for {
		node := -1
		for w, word := range pending {
			if word != 0 {
				p := w<<6 | bits.TrailingZeros64(word)
				pending[w] = word & (word - 1) // clear the lowest set bit
				node = order[p]
				break
			}
		}
		if node < 0 {
			return res
		}
		visitsPerNode[node]++
		if visitsPerNode[node] > visitBudget {
			panic(fmt.Sprintf("dataflow: node %d evaluated %d times; transfer function is not monotone", node, visitsPerNode[node]))
		}
		res.Visits++
		out := f(node, res.In[node])
		if lat.Equal(out, res.Out[node]) {
			continue
		}
		res.Out[node] = out
		for _, succ := range g.Succs(node) {
			joined := lat.Join(res.In[succ], out)
			if !lat.Equal(joined, res.In[succ]) {
				res.In[succ] = joined
				p := pos[succ] // successors of a reached node are in the RPO
				pending[p>>6] |= 1 << (uint(p) & 63)
			}
		}
	}
}

// rpo returns the reverse postorder of the nodes reachable from the
// entry, built in buf (which must have capacity NumNodes()). On return
// pos, which must have length NumNodes(), maps each reached node to its
// position in the order and every other node to -1.
func rpo(g Graph, pos, buf []int) []int {
	for i := range pos {
		pos[i] = -1
	}
	post := buf
	var walk func(id int)
	walk = func(id int) {
		pos[id] = 0 // seen
		for _, s := range g.Succs(id) {
			if pos[s] < 0 {
				walk(s)
			}
		}
		post = append(post, id)
	}
	walk(g.Entry())
	slices.Reverse(post)
	for i, id := range post {
		pos[id] = i
	}
	return post
}
