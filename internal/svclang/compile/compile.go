// Package compile lowers parsed svclang services to a compact flat
// bytecode and executes it on an allocation-frugal virtual machine. The
// package exists for one reason: the tree-walking interpreter in
// internal/svclang is the benchmark's hot path (every pentester probe and
// every oracle assignment is one execution), and its per-request costs —
// revalidation, an environment map, a fresh []rune/[]bool pair per
// literal and per builtin application — dominate campaign allocation
// profiles. The VM replaces all of that with a linear instruction stream
// over interned constants, slot-indexed variables and per-character taint
// kept as packed bitsets inside a sync.Pool-recycled arena.
//
// The VM is NOT a second implementation of the language semantics with
// its own opinions: it must reproduce ExecuteInSession exactly, including
// oracle-visible taint provenance, session-store effects and reject
// unwinding. The differential test suite (every workload template, every
// knob combination, fuzzed services) and the campaign- and corpus-level
// reference tests enforce this; the interpreter stays reachable through
// NewReferenceEngine as the reference those tests compare against.
package compile

import (
	"fmt"
	"unicode/utf8"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// opcode enumerates the VM's instruction set. Expressions compile to
// stack operations, conditions to a test that sets the VM's boolean flag
// followed by a conditional branch, and statements to a linear stream
// with pre-resolved jump targets. reject compiles to a jump past the end
// of the stream — the interpreter's "rejected" flag checked before every
// statement and loop iteration collapses to a single unconditional exit,
// which is equivalent because nothing observable happens after a reject.
type opcode uint8

const (
	// opConst pushes interned constant a (untainted).
	opConst opcode = iota + 1
	// opLoadVar pushes variable slot a.
	opLoadVar
	// opSetVar pops into variable slot a.
	opSetVar
	// opZeroVar resets variable slot a to the empty string (a VarDecl
	// executed mid-stream, matching the interpreter's re-zeroing).
	opZeroVar
	// opLoadStore pushes the session-store value of interned key a.
	opLoadStore
	// opSetStore pops into the session-store value of interned key a.
	opSetStore
	// opConcat pops a values and pushes their concatenation.
	opConcat
	// opBuiltin pops one value, applies single-argument builtin a
	// (svclang.Builtin), and pushes the result.
	opBuiltin
	// opSink pops a value and records a sink event for sink table entry a.
	opSink
	// opReject marks the request rejected and jumps past the end of the
	// stream.
	opReject
	// opJump jumps to b.
	opJump
	// opBrFalse jumps to b when the flag is false.
	opBrFalse
	// opTestMatch pops a value and sets the flag to "every character is in
	// character class a".
	opTestMatch
	// opTestContains pops a value and sets the flag to "contains interned
	// constant a".
	opTestContains
	// opTestEq pops a value and sets the flag to "equals interned
	// constant a".
	opTestEq
	// opTestBool sets the flag to a != 0 (a BoolLit condition).
	opTestBool
	// opNotFlag negates the flag.
	opNotFlag
	// opLoopInit pushes loop counter a onto the loop stack.
	opLoopInit
	// opLoopNext decrements the top loop counter; while it stays positive
	// execution jumps back to b, otherwise the counter is popped.
	opLoopNext
)

// instr is one bytecode instruction: an opcode with an operand (constant
// index, slot, count, builtin) and a jump target where applicable. Fixed
// shape keeps the stream a single flat slice.
type instr struct {
	op opcode
	a  int32
	b  int32
}

// sinkInfo is the per-sink metadata table referenced by opSink.
type sinkInfo struct {
	id     int
	kind   svclang.SinkKind
	silent bool
}

// Program is one compiled service: the instruction stream plus every
// table the VM needs, all immutable after Compile so one Program can
// serve concurrent executions.
type Program struct {
	service *svclang.Service
	params  []string // request lookup order; param i lives in slot i
	nSlots  int      // params + hoisted variables
	code    []instr
	consts  [][]rune // interned literals, Contains needles and Eq values
	// constRaw keeps each constant's original source bytes and constOK
	// whether those bytes are valid UTF-8. Contains/Eq compare rune-wise
	// only when the needle is valid (where rune equality and byte equality
	// of the encodings coincide); an invalid needle falls back to the
	// interpreter's exact byte-level comparison.
	constRaw []string
	constOK  []bool
	sinks    []sinkInfo
	// storeKeys interns the session-store keys; arena-local stores (fresh
	// store per request) are slot vectors over this table instead of maps.
	storeKeys []string
	// zeroBits is a shared all-zero taint bitset covering the longest
	// interned constant, so constants carry no per-value allocation.
	zeroBits []uint64
	// maxStack, maxLoops and eventBound are static worst cases used to
	// size arena scratch up front (no growth checks on the hot path).
	maxStack   int
	maxLoops   int
	eventBound int
}

// Service returns the service this program was compiled from.
func (p *Program) Service() *svclang.Service { return p.service }

// Compile lowers a validated service to bytecode. Validation happens
// once here instead of once per execution (the interpreter revalidates on
// every ExecuteInSession call); the returned Program assumes the service
// is not mutated afterwards, the same contract every other consumer of a
// parsed Service already relies on.
func Compile(svc *svclang.Service) (*Program, error) {
	if svc == nil {
		return nil, fmt.Errorf("svclang: nil service")
	}
	if err := svc.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{
		prog:     &Program{service: svc, params: svc.Params},
		slots:    make(map[string]int, len(svc.Params)+4),
		constIdx: map[string]int{},
		storeIdx: map[string]int{},
	}
	for _, p := range svc.Params {
		c.slots[p] = len(c.slots)
	}
	// Hoist every declared variable to a slot, mirroring the
	// interpreter's hoisting pass: all variables exist (empty) from the
	// start of the request.
	c.hoist(svc.Body)
	c.prog.nSlots = len(c.slots)
	if err := c.stmts(svc.Body); err != nil {
		return nil, err
	}
	c.prog.eventBound = eventBound(svc.Body)
	words := (c.maxConst + 63) / 64
	if words == 0 {
		words = 1
	}
	c.prog.zeroBits = make([]uint64, words)
	return c.prog, nil
}

// compiler carries the emission state of one Compile call.
type compiler struct {
	prog     *Program
	slots    map[string]int
	constIdx map[string]int
	storeIdx map[string]int
	// depth tracks the operand stack level during linear emission. The
	// stack is empty between statements and branches never carry operands
	// across joins, so tracking along emission order is exact.
	depth    int
	loopNest int
	maxConst int // longest interned constant, for zeroBits sizing
}

func (c *compiler) hoist(list []svclang.Stmt) {
	for _, st := range list {
		switch v := st.(type) {
		case svclang.VarDecl:
			if _, ok := c.slots[v.Name]; !ok {
				c.slots[v.Name] = len(c.slots)
			}
		case svclang.If:
			c.hoist(v.Then)
			c.hoist(v.Else)
		case svclang.Repeat:
			c.hoist(v.Body)
		}
	}
}

func (c *compiler) emit(op opcode, a, b int32) int {
	c.prog.code = append(c.prog.code, instr{op: op, a: a, b: b})
	switch op {
	case opConst, opLoadVar, opLoadStore:
		c.push(1)
	case opSetVar, opSetStore, opSink, opTestMatch, opTestContains, opTestEq:
		c.depth--
	case opConcat:
		c.depth -= int(a) - 1
	}
	return len(c.prog.code) - 1
}

func (c *compiler) push(n int) {
	c.depth += n
	if c.depth > c.prog.maxStack {
		c.prog.maxStack = c.depth
	}
}

// patch resolves the jump target of the instruction at idx to the current
// end of the stream.
func (c *compiler) patch(idx int) {
	c.prog.code[idx].b = int32(len(c.prog.code))
}

func (c *compiler) intern(s string) int32 {
	if i, ok := c.constIdx[s]; ok {
		return int32(i)
	}
	i := len(c.prog.consts)
	c.constIdx[s] = i
	rs := []rune(s)
	c.prog.consts = append(c.prog.consts, rs)
	c.prog.constRaw = append(c.prog.constRaw, s)
	c.prog.constOK = append(c.prog.constOK, utf8.ValidString(s))
	if len(rs) > c.maxConst {
		c.maxConst = len(rs)
	}
	return int32(i)
}

func (c *compiler) storeKey(k string) int32 {
	if i, ok := c.storeIdx[k]; ok {
		return int32(i)
	}
	i := len(c.prog.storeKeys)
	c.storeIdx[k] = i
	c.prog.storeKeys = append(c.prog.storeKeys, k)
	return int32(i)
}

func (c *compiler) stmts(list []svclang.Stmt) error {
	for _, st := range list {
		if err := c.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(st svclang.Stmt) error {
	switch v := st.(type) {
	case svclang.VarDecl:
		c.emit(opZeroVar, int32(c.slots[v.Name]), 0)
	case svclang.Assign:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		c.emit(opSetVar, int32(c.slots[v.Name]), 0)
	case svclang.If:
		if err := c.cond(v.Cond); err != nil {
			return err
		}
		br := c.emit(opBrFalse, 0, 0)
		if err := c.stmts(v.Then); err != nil {
			return err
		}
		if len(v.Else) == 0 {
			c.patch(br)
			return nil
		}
		jmp := c.emit(opJump, 0, 0)
		c.patch(br)
		if err := c.stmts(v.Else); err != nil {
			return err
		}
		c.patch(jmp)
	case svclang.Repeat:
		c.emit(opLoopInit, int32(v.Count), 0)
		c.loopNest++
		if c.loopNest > c.prog.maxLoops {
			c.prog.maxLoops = c.loopNest
		}
		body := len(c.prog.code)
		if err := c.stmts(v.Body); err != nil {
			return err
		}
		c.loopNest--
		c.emit(opLoopNext, 0, int32(body))
	case svclang.Sink:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		idx := len(c.prog.sinks)
		c.prog.sinks = append(c.prog.sinks, sinkInfo{id: v.ID, kind: v.Kind, silent: v.Silent})
		c.emit(opSink, int32(idx), 0)
	case svclang.Reject:
		c.emit(opReject, 0, 0)
	case svclang.Store:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		c.emit(opSetStore, c.storeKey(v.Key), 0)
	default:
		return fmt.Errorf("svclang: unknown statement type %T", st)
	}
	return nil
}

func (c *compiler) expr(e svclang.Expr) error {
	switch v := e.(type) {
	case svclang.Lit:
		c.emit(opConst, c.intern(v.Value), 0)
	case svclang.Ident:
		c.emit(opLoadVar, int32(c.slots[v.Name]), 0)
	case svclang.LoadExpr:
		c.emit(opLoadStore, c.storeKey(v.Key), 0)
	case svclang.Call:
		for _, a := range v.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		if v.Fn == svclang.BuiltinConcat {
			c.emit(opConcat, int32(len(v.Args)), 0)
		} else {
			c.emit(opBuiltin, int32(v.Fn), 0)
		}
	default:
		return fmt.Errorf("svclang: unknown expression type %T", e)
	}
	return nil
}

func (c *compiler) cond(cd svclang.Cond) error {
	switch v := cd.(type) {
	case svclang.Match:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		c.emit(opTestMatch, int32(v.Class), 0)
	case svclang.Contains:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		c.emit(opTestContains, c.intern(v.Needle), 0)
	case svclang.Eq:
		if err := c.expr(v.Expr); err != nil {
			return err
		}
		c.emit(opTestEq, c.intern(v.Value), 0)
	case svclang.Not:
		if err := c.cond(v.Inner); err != nil {
			return err
		}
		c.emit(opNotFlag, 0, 0)
	case svclang.BoolLit:
		var a int32
		if v.Value {
			a = 1
		}
		c.emit(opTestBool, a, 0)
	default:
		return fmt.Errorf("svclang: unknown condition type %T", cd)
	}
	return nil
}

// eventBound computes the static worst-case number of sink events one
// execution can record (branches contribute their larger arm, loops
// multiply). The VM sizes the one escaping allocation — the events slice
// — exactly once from this bound.
func eventBound(list []svclang.Stmt) int {
	n := 0
	for _, st := range list {
		switch v := st.(type) {
		case svclang.Sink:
			n++
		case svclang.If:
			t, e := eventBound(v.Then), eventBound(v.Else)
			if t > e {
				n += t
			} else {
				n += e
			}
		case svclang.Repeat:
			n += v.Count * eventBound(v.Body)
		}
	}
	return n
}
