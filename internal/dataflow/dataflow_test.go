package dataflow

import (
	"strings"
	"testing"
)

// testGraph is an adjacency-list graph with entry 0.
type testGraph [][]int

func (g testGraph) NumNodes() int     { return len(g) }
func (g testGraph) Entry() int        { return 0 }
func (g testGraph) Succs(n int) []int { return g[n] }

// bitsLattice is the powerset lattice over small bit sets, with -1 as an
// explicit bottom distinct from the empty set.
type bitsLattice struct{}

func (bitsLattice) Bottom() int { return -1 }
func (bitsLattice) Join(a, b int) int {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	return a | b
}
func (bitsLattice) Equal(a, b int) bool { return a == b }

func TestDiamondJoinsBothArms(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3: each arm contributes a bit, the join sees
	// both.
	g := testGraph{{1, 2}, {3}, {3}, nil}
	res := Solve[int](g, bitsLattice{}, 0, func(n, in int) int {
		switch n {
		case 1:
			return in | 1
		case 2:
			return in | 2
		}
		return in
	})
	if res.In[3] != 3 {
		t.Fatalf("join in-fact = %b, want 11", res.In[3])
	}
	if res.Out[3] != 3 {
		t.Fatalf("join out-fact = %b, want 11", res.Out[3])
	}
}

func TestLoopConverges(t *testing.T) {
	// 0 -> 1 <-> 2, 1 -> 3. Node 2 adds a bit each time around; the
	// fixpoint saturates after one lap per bit.
	g := testGraph{{1}, {2, 3}, {1}, nil}
	gain := []int{0, 0, 1, 0}
	res := Solve[int](g, bitsLattice{}, 4, func(n, in int) int {
		return in | gain[n]
	})
	if res.In[3] != 5 {
		t.Fatalf("loop exit fact = %b, want 101", res.In[3])
	}
	// Reverse-postorder scheduling keeps revisits minimal: well under the
	// nodes × height product for this 4-node, 4-bit lattice.
	if res.Visits > 16 {
		t.Fatalf("loop took %d visits", res.Visits)
	}
}

func TestUnreachableNodesNeverVisited(t *testing.T) {
	// Node 2 has no in-edges.
	g := testGraph{{1}, nil, {1}}
	visited := map[int]bool{}
	res := Solve[int](g, bitsLattice{}, 1, func(n, in int) int {
		visited[n] = true
		return in
	})
	if visited[2] {
		t.Fatal("unreachable node evaluated")
	}
	if res.In[2] != -1 || res.Out[2] != -1 {
		t.Fatalf("unreachable node facts = %d/%d, want bottom", res.In[2], res.Out[2])
	}
}

func TestDeterministicVisitSequence(t *testing.T) {
	g := testGraph{{1, 2}, {3}, {3}, {1, 4}, nil}
	record := func() []int {
		var seq []int
		Solve[int](g, bitsLattice{}, 1, func(n, in int) int {
			seq = append(seq, n)
			return in | n
		})
		return seq
	}
	first := record()
	for i := 0; i < 5; i++ {
		again := record()
		if len(again) != len(first) {
			t.Fatalf("visit count varies: %v vs %v", first, again)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("visit sequence varies at %d: %v vs %v", j, first, again)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	res := Solve[int](testGraph{}, bitsLattice{}, 1, func(n, in int) int { return in })
	if res.Visits != 0 || len(res.In) != 0 {
		t.Fatalf("empty graph solved to %+v", res)
	}
}

func TestNonMonotoneTransferPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oscillating transfer did not panic")
		}
		if !strings.Contains(r.(string), "not monotone") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	// A broken lattice whose "join" is last-writer-wins lets an
	// alternating transfer oscillate forever on a self-loop; the visit
	// budget must trip instead of hanging.
	g := testGraph{{0}}
	Solve[int](g, lastWriterWins{}, 1, func(n, in int) int {
		if in == 1 {
			return 2
		}
		return 1
	})
}

// lastWriterWins violates the join-semilattice laws on purpose: Join is
// neither commutative nor idempotent-growing, so facts can shrink.
type lastWriterWins struct{}

func (lastWriterWins) Bottom() int { return -1 }
func (lastWriterWins) Join(a, b int) int {
	if b < 0 {
		return a
	}
	return b
}
func (lastWriterWins) Equal(a, b int) bool { return a == b }

// TestReversePostorderStartsAtEntry checks the order the solver drains
// its worklist in: it starts at the entry, lists every reachable node
// exactly once and no other, and every edge that goes backwards in it
// closes a cycle.
func TestReversePostorderStartsAtEntry(t *testing.T) {
	cases := []struct {
		name string
		g    testGraph
	}{
		{"single", testGraph{nil}},
		{"chain", testGraph{{1}, {2}, nil}},
		{"diamond", testGraph{{1, 2}, {3}, {3}, nil}},
		{"loop", testGraph{{1}, {2, 3}, {1}, nil}},
		{"self-loop", testGraph{{1}, {1, 2}, nil}},
		{"unreachable", testGraph{{2}, {2}, nil}},
		// An if/else into a two-lap loop, the shape of a branch followed
		// by a repeat statement.
		{"branch-then-loop", testGraph{{1, 2}, {3}, {3}, {4}, {3, 5}, nil}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.g.NumNodes()
			pos := make([]int, n)
			order := rpo(c.g, pos, make([]int, 0, n))
			if order[0] != c.g.Entry() {
				t.Fatalf("order starts at node %d, want entry", order[0])
			}
			reach := reachableFrom(c.g, c.g.Entry())
			if len(order) != len(reach) {
				t.Fatalf("order has %d nodes, %d reachable", len(order), len(reach))
			}
			for id := 0; id < n; id++ {
				if reach[id] != (pos[id] >= 0) {
					t.Fatalf("node %d: reachable %v, position %d", id, reach[id], pos[id])
				}
				if pos[id] >= 0 && order[pos[id]] != id {
					t.Fatalf("pos[%d] = %d, but order holds %d there", id, pos[id], order[pos[id]])
				}
			}
			for _, u := range order {
				for _, v := range c.g.Succs(u) {
					if pos[v] <= pos[u] && !reachableFrom(c.g, v)[u] {
						t.Fatalf("edge %d->%d goes backwards without closing a cycle", u, v)
					}
				}
			}
		})
	}
}

// reachableFrom returns the set of nodes reachable from start.
func reachableFrom(g testGraph, start int) map[int]bool {
	seen := map[int]bool{}
	stack := []int{start}
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
