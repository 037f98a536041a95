package svclang

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Digest is the content address of a service: the SHA-256 of a tagged,
// length-prefixed encoding of its parameters and body. The name is left
// out, so renamed copies of one body share a digest, and everything else
// is in: parameter names and order, every literal, builtin, sink ID,
// kind and silent flag, repeat count, store key and condition. Ground
// truth, compiled programs and every deterministic tool's findings
// (service name aside) are functions of the body alone, which is what
// lets a campaign analyse each distinct body once.
type Digest [sha256.Size]byte

// Encoding tags. Every node writes its tag, then its fields in
// declaration order: strings as a uvarint length and their bytes,
// integers as varints, flags as one byte, and child lists as a uvarint
// count followed by the children. A nil or foreign node writes only its
// tag, so a malformed AST digests without panicking (it is never
// content-keyed: validation rejects it first).
const (
	dgNilService byte = iota + 1
	dgVarDecl
	dgAssign
	dgIf
	dgRepeat
	dgSink
	dgReject
	dgStore
	dgLit
	dgIdent
	dgCall
	dgLoad
	dgMatch
	dgContains
	dgEq
	dgNot
	dgBoolLit
	dgNilNode
	dgForeignNode
)

// digestBufs pools the encoding buffers, so a digest allocates nothing
// once the pool is warm.
var digestBufs = sync.Pool{New: func() any { return new(digestEncoder) }}

type digestEncoder struct{ buf []byte }

// Digest returns the service's content address. A nil service has a
// digest of its own.
func (s *Service) Digest() Digest {
	e := digestBufs.Get().(*digestEncoder)
	if s == nil {
		e.tag(dgNilService)
	} else {
		e.count(len(s.Params))
		for _, p := range s.Params {
			e.str(p)
		}
		e.stmts(s.Body)
	}
	d := Digest(sha256.Sum256(e.buf))
	e.buf = e.buf[:0]
	digestBufs.Put(e)
	return d
}

func (e *digestEncoder) tag(t byte)  { e.buf = append(e.buf, t) }
func (e *digestEncoder) count(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }
func (e *digestEncoder) num(n int)   { e.buf = binary.AppendVarint(e.buf, int64(n)) }

func (e *digestEncoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
}

func (e *digestEncoder) flag(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

func (e *digestEncoder) stmts(list []Stmt) {
	e.count(len(list))
	for _, st := range list {
		switch v := st.(type) {
		case VarDecl:
			e.tag(dgVarDecl)
			e.str(v.Name)
		case Assign:
			e.tag(dgAssign)
			e.str(v.Name)
			e.expr(v.Expr)
		case If:
			e.tag(dgIf)
			e.cond(v.Cond)
			e.stmts(v.Then)
			e.stmts(v.Else)
		case Repeat:
			e.tag(dgRepeat)
			e.num(v.Count)
			e.stmts(v.Body)
		case Sink:
			e.tag(dgSink)
			e.num(v.ID)
			e.num(int(v.Kind))
			e.flag(v.Silent)
			e.expr(v.Expr)
		case Reject:
			e.tag(dgReject)
		case Store:
			e.tag(dgStore)
			e.str(v.Key)
			e.expr(v.Expr)
		case nil:
			e.tag(dgNilNode)
		default:
			e.tag(dgForeignNode)
		}
	}
}

func (e *digestEncoder) expr(x Expr) {
	switch v := x.(type) {
	case Lit:
		e.tag(dgLit)
		e.str(v.Value)
	case Ident:
		e.tag(dgIdent)
		e.str(v.Name)
	case Call:
		e.tag(dgCall)
		e.num(int(v.Fn))
		e.count(len(v.Args))
		for _, a := range v.Args {
			e.expr(a)
		}
	case LoadExpr:
		e.tag(dgLoad)
		e.str(v.Key)
	case nil:
		e.tag(dgNilNode)
	default:
		e.tag(dgForeignNode)
	}
}

func (e *digestEncoder) cond(c Cond) {
	switch v := c.(type) {
	case Match:
		e.tag(dgMatch)
		e.expr(v.Expr)
		e.num(int(v.Class))
	case Contains:
		e.tag(dgContains)
		e.expr(v.Expr)
		e.str(v.Needle)
	case Eq:
		e.tag(dgEq)
		e.expr(v.Expr)
		e.str(v.Value)
	case Not:
		e.tag(dgNot)
		e.cond(v.Inner)
	case BoolLit:
		e.tag(dgBoolLit)
		e.flag(v.Value)
	case nil:
		e.tag(dgNilNode)
	default:
		e.tag(dgForeignNode)
	}
}
