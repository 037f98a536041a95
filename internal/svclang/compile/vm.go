package compile

import (
	"strings"
	"unicode/utf8"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// value is the VM's string representation: a view into the arena's rune
// slab (or an interned constant) plus a packed taint bitset. Bit off+i of
// bits is the taint flag of chars[i]. Values are immutable views — trim
// is pure slice-and-offset arithmetic, exactly like the interpreter's
// backing-array sharing — and slab growth never invalidates them (old
// views keep pointing into the old backing array, whose prefix was fully
// written before the growth).
type value struct {
	chars []rune
	bits  []uint64
	off   int
}

func (v value) tainted(i int) bool {
	idx := v.off + i
	return v.bits[idx>>6]&(1<<uint(idx&63)) != 0
}

// arena is the per-execution scratch state: the rune slab and its
// parallel taint bitset, the operand stack, the variable slots, the loop
// counters and the slot-indexed fresh-request session store. Engines
// recycle arenas through a sync.Pool; begin() re-zeroes every bit of
// taint state on reuse so a pooled (or deliberately poisoned) arena can
// never leak one request's taint into the next — values only ever OR
// bits in, so a zeroed slab is the full reset.
type arena struct {
	runes []rune
	bits  []uint64
	used  int

	stack     []value
	vars      []value
	loops     []int32
	storeVals []value
	storeSet  []bool
}

// begin readies the arena for one execution of p.
func (a *arena) begin(p *Program) {
	for i := range a.bits {
		a.bits[i] = 0
	}
	a.used = 0
	if cap(a.stack) < p.maxStack {
		a.stack = make([]value, 0, p.maxStack)
	}
	if len(a.vars) < p.nSlots {
		a.vars = make([]value, p.nSlots)
	}
	if cap(a.loops) < p.maxLoops {
		a.loops = make([]int32, 0, p.maxLoops)
	}
	if len(a.storeSet) < len(p.storeKeys) {
		a.storeVals = make([]value, len(p.storeKeys))
		a.storeSet = make([]bool, len(p.storeKeys))
	}
	for i := range a.storeSet {
		a.storeSet[i] = false
		a.storeVals[i] = value{}
	}
}

// reserve claims n rune slots and returns the start index. Growth copies
// the used prefix; the fresh bitset words come back zeroed from make.
func (a *arena) reserve(n int) int {
	start := a.used
	need := start + n
	if need > len(a.runes) {
		newCap := 2 * len(a.runes)
		if newCap < need {
			newCap = need
		}
		if newCap < 256 {
			newCap = 256
		}
		nr := make([]rune, newCap)
		copy(nr, a.runes[:a.used])
		nb := make([]uint64, (newCap+63)/64)
		copy(nb, a.bits)
		a.runes, a.bits = nr, nb
	}
	a.used = need
	return start
}

func (a *arena) setBit(i int) {
	a.bits[i>>6] |= 1 << uint(i&63)
}

func (a *arena) view(start, n int) value {
	return value{chars: a.runes[start : start+n], bits: a.bits, off: start}
}

// fromString decodes a request parameter into the arena, fully tainted.
// Ranging over the string yields one U+FFFD per invalid byte — the same
// normalisation []rune(s) applies in NewTaintedTString.
func (a *arena) fromString(s string) value {
	n := utf8.RuneCountInString(s)
	if n == 0 {
		return value{}
	}
	start := a.reserve(n)
	i := start
	for _, r := range s {
		a.runes[i] = r
		a.setBit(i)
		i++
	}
	return a.view(start, n)
}

// fromTString copies a session-store value into the arena.
func (a *arena) fromTString(t svclang.TString) value {
	rs, ts := t.Runes(), t.Taints()
	if len(rs) == 0 {
		return value{}
	}
	start := a.reserve(len(rs))
	copy(a.runes[start:start+len(rs)], rs)
	for i, tainted := range ts {
		if tainted {
			a.setBit(start + i)
		}
	}
	return a.view(start, len(rs))
}

// materialize copies a value out of the arena into a real TString — the
// only escape points of an execution are sink events and external
// session-store writes, and both go through here.
func materialize(v value) svclang.TString {
	n := len(v.chars)
	chars := make([]rune, n)
	copy(chars, v.chars)
	taint := make([]bool, n)
	for i := 0; i < n; i++ {
		if v.tainted(i) {
			taint[i] = true
		}
	}
	return svclang.MakeTString(chars, taint)
}

// run executes the program on one request. store == nil uses the arena's
// slot-indexed fresh store; a non-nil store reads and writes the
// caller's SessionStore with materialised TStrings, exactly like the
// interpreter. A non-nil obs (black-box observation) or probe
// (white-box structural-taint judgment) switches sink events from
// materialised Result.Events to streamed callbacks over the arena's
// values — the zero-allocation paths; at most one of the two may be
// set. run cannot fail: everything the interpreter errors on at runtime
// is rejected at compile time.
func (p *Program) run(a *arena, req svclang.Request, store *svclang.SessionStore, obs ObserveFunc, probe svclang.ProbeObserver) svclang.Result {
	a.begin(p)
	vars := a.vars
	for i, name := range p.params {
		vars[i] = a.fromString(req[name])
	}
	for i := len(p.params); i < p.nSlots; i++ {
		vars[i] = value{}
	}
	stack := a.stack[:0]
	loops := a.loops[:0]
	var events []svclang.SinkEvent
	rejected := false
	flag := false
	code := p.code
	pc := 0
	for pc < len(code) {
		in := code[pc]
		switch in.op {
		case opConst:
			stack = append(stack, value{chars: p.consts[in.a], bits: p.zeroBits})
			pc++
		case opLoadVar:
			stack = append(stack, vars[in.a])
			pc++
		case opSetVar:
			vars[in.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pc++
		case opZeroVar:
			vars[in.a] = value{}
			pc++
		case opLoadStore:
			var v value
			if store != nil {
				v = a.fromTString(store.Get(p.storeKeys[in.a]))
			} else if a.storeSet[in.a] {
				v = a.storeVals[in.a]
			}
			stack = append(stack, v)
			pc++
		case opSetStore:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if store != nil {
				store.Set(p.storeKeys[in.a], materialize(v))
			} else {
				a.storeVals[in.a] = v
				a.storeSet[in.a] = true
			}
			pc++
		case opConcat:
			n := int(in.a)
			parts := stack[len(stack)-n:]
			v := a.concat(parts)
			stack = stack[:len(stack)-n]
			stack = append(stack, v)
			pc++
		case opBuiltin:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = a.builtin(svclang.Builtin(in.a), v)
			pc++
		case opSink:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			si := p.sinks[in.a]
			switch {
			case obs != nil:
				obs(si.id, si.kind, si.silent, v.chars)
			case probe != nil:
				probe(si.id, si.kind, svclang.StructuralTaintPacked(si.kind, v.chars, v.bits, v.off))
			default:
				if events == nil {
					events = make([]svclang.SinkEvent, 0, p.eventBound)
				}
				events = append(events, svclang.SinkEvent{SinkID: si.id, Kind: si.kind, Value: materialize(v), Silent: si.silent})
			}
			pc++
		case opReject:
			rejected = true
			pc = len(code)
		case opJump:
			pc = int(in.b)
		case opBrFalse:
			if flag {
				pc++
			} else {
				pc = int(in.b)
			}
		case opTestMatch:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flag = matchClass(v.chars, svclang.CharClass(in.a))
			pc++
		case opTestContains:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flag = p.contains(v, int(in.a))
			pc++
		case opTestEq:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flag = p.equals(v, int(in.a))
			pc++
		case opTestBool:
			flag = in.a != 0
			pc++
		case opNotFlag:
			flag = !flag
			pc++
		case opLoopInit:
			loops = append(loops, in.a)
			pc++
		case opLoopNext:
			loops[len(loops)-1]--
			if loops[len(loops)-1] > 0 {
				pc = int(in.b)
			} else {
				loops = loops[:len(loops)-1]
				pc++
			}
		}
	}
	return svclang.Result{Rejected: rejected, Events: events}
}

// concat joins parts into one fresh arena value. A single part passes
// through unchanged (values are immutable, so sharing is safe).
func (a *arena) concat(parts []value) value {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p.chars)
	}
	start := a.reserve(total)
	j := start
	for _, p := range parts {
		copy(a.runes[j:j+len(p.chars)], p.chars)
		// Read the part's taint one bitset word at a time: re-loading the
		// word per character, right after a setBit store into the same
		// bitset, can stall each load behind the store on some heap
		// layouts. The cached word stays valid because the destination
		// bits are fresh, so no setBit here touches a bit of any part.
		var w uint64
		for i := range p.chars {
			idx := p.off + i
			if i == 0 || idx&63 == 0 {
				w = p.bits[idx>>6]
			}
			if w>>uint(idx&63)&1 != 0 {
				a.setBit(j + i)
			}
		}
		j += len(p.chars)
	}
	return a.view(start, total)
}

// builtin applies a single-argument builtin through the shared
// builtinSpecs table in svclang/builtins.go — the same replacement
// functions the interpreter's applyBuiltin maps over TStrings. Validation
// guarantees fn is one of the known single-argument builtins (concat
// has its own opcode); of those only trim is not character-wise.
func (a *arena) builtin(fn svclang.Builtin, v value) value {
	if fn == svclang.BuiltinTrim {
		return trim(v)
	}
	if repl := svclang.ReplFor(fn); repl != nil {
		return a.mapRepl(v, repl)
	}
	return v
}

// mapRepl rewrites v through a replacement table in two passes: measure,
// then fill. An input with nothing to replace passes through as-is —
// content and taint are identical either way, and sharing immutable
// views is exactly what the interpreter's trim already does.
func (a *arena) mapRepl(v value, repl svclang.ReplFunc) value {
	outLen, changed := 0, false
	for _, r := range v.chars {
		if rs := repl(r); rs != nil {
			outLen += len(rs)
			changed = true
		} else {
			outLen++
		}
	}
	if !changed {
		return v
	}
	start := a.reserve(outLen)
	j := start
	for i, r := range v.chars {
		t := v.tainted(i)
		rs := repl(r)
		if rs == nil {
			a.runes[j] = r
			if t {
				a.setBit(j)
			}
			j++
			continue
		}
		for _, nr := range rs {
			a.runes[j] = nr
			if t {
				a.setBit(j)
			}
			j++
		}
	}
	return a.view(start, outLen)
}

// trim strips leading and trailing spaces by pure view arithmetic — the
// same backing-array sharing as the interpreter's trim.
func trim(v value) value {
	s, e := 0, len(v.chars)
	for s < e && v.chars[s] == ' ' {
		s++
	}
	for e > s && v.chars[e-1] == ' ' {
		e--
	}
	return value{chars: v.chars[s:e], bits: v.bits, off: v.off + s}
}

// matchClass replicates CharClass.MatchesClass over the rune view (the
// interpreter round-trips through a string; the rune sequences are
// identical, so so are the answers). The empty string matches every
// class.
func matchClass(chars []rune, c svclang.CharClass) bool {
	for _, r := range chars {
		switch c {
		case svclang.ClassDigits:
			if r < '0' || r > '9' {
				return false
			}
		case svclang.ClassAlpha:
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
				return false
			}
		case svclang.ClassAlnum:
			if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// contains implements the Contains condition. For a needle that is valid
// UTF-8 (every needle the parser can produce from well-formed source),
// rune-level search over the normalised value equals the interpreter's
// byte-level strings.Contains: UTF-8 is self-synchronising, so a byte
// match can neither start nor end inside a rune. A needle carrying
// invalid bytes cannot be compared rune-wise without changing semantics
// ([]rune normalises it, the interpreter's byte comparison does not), so
// that cold path re-encodes the value and defers to strings.Contains.
func (p *Program) contains(v value, idx int) bool {
	if !p.constOK[idx] {
		return strings.Contains(string(v.chars), p.constRaw[idx])
	}
	needle := p.consts[idx]
	if len(needle) == 0 {
		return true
	}
	hay := v.chars
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// equals implements the Eq condition; the same valid-UTF-8 reasoning as
// contains applies (rune equality equals byte equality of the
// encodings).
func (p *Program) equals(v value, idx int) bool {
	if !p.constOK[idx] {
		return string(v.chars) == p.constRaw[idx]
	}
	lit := p.consts[idx]
	if len(v.chars) != len(lit) {
		return false
	}
	for i := range lit {
		if v.chars[i] != lit[i] {
			return false
		}
	}
	return true
}
