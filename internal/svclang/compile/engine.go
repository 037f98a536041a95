package compile

import (
	"sync"

	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// Engine is the execution seam the rest of the benchmark runs through: a
// compiled-program table plus an arena pool. One engine is shared by
// every tool in a campaign (the harness binds it like the cfg compile
// cache), so each distinct service body compiles exactly once no matter
// how many renamed copies of it the corpus holds or how many probes hit
// them.
type Engine struct {
	ref Reference // nil on every production engine; see NewReferenceEngine

	// bodies holds one program per distinct validated body, keyed by the
	// body's digest (svclang.Service.Digest): the first caller compiles
	// while concurrent callers for that body wait. Only validated
	// services reach it, so a validation error always names its own
	// service.
	bodies *memo.Cache[svclang.Digest, *Program]

	pool sync.Pool
}

// Reference is an independent implementation of the language that an
// engine delegates execution and ground truth to instead of the VM and
// the pruned search: internal/svclang/reference, which only tests import.
type Reference interface {
	ExecuteInSession(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore) (svclang.Result, error)
	Analyze(svc *svclang.Service) ([]svclang.GroundTruth, error)
}

// NewEngine returns the execution engine every campaign and corpus runs
// on: the bytecode VM, with ground truth derived by the influence-guided
// (pruned) oracle search.
func NewEngine() *Engine {
	e := &Engine{bodies: memo.New[svclang.Digest, *Program](0, nil)}
	e.pool.New = func() any { return new(arena) }
	return e
}

// NewReferenceEngine returns an engine that delegates to ref, for the
// differential suites that require its campaigns and corpora deep-equal
// to NewEngine's. vdlint's compiledexec analyzer rejects any non-test
// call.
func NewReferenceEngine(ref Reference) *Engine {
	e := NewEngine()
	e.ref = ref
	return e
}

// Program returns the compiled program for svc, looked up by d, which
// must be svc.Digest(), compiling its body on first use. Renamed copies
// of one body share one program. A body enters the table only once a
// service of it validates, so an invalid service always fails with its
// own error; a later copy of a compiled body is checked only for what
// its digest leaves out, its name.
func (e *Engine) Program(svc *svclang.Service, d svclang.Digest) (*Program, error) {
	if _, ok := e.bodies.Get(d); !ok || svc == nil || svc.Name == "" {
		if err := validate(svc); err != nil {
			return nil, err
		}
	}
	p, _, err := e.bodies.Do(d, func(d svclang.Digest) (*Program, error) { return lower(svc, d) })
	return p, err
}

// Stats returns the program table's counters: misses compiled a body,
// hits are the lookups of a body compiled before. A failed validation
// is not a lookup.
func (e *Engine) Stats() (hits, misses uint64) {
	hits, misses, _ = e.bodies.Stats()
	return hits, misses
}

// ExecuteInSession runs the service against an existing session store
// (nil for a fresh one), like svclang.ExecuteInSession. Compilation
// errors are exactly the interpreter's validation errors — the engine
// front-loads the Validate call the interpreter repeats per request.
// It digests svc on every call; callers that hold the digest bind
// instead.
func (e *Engine) ExecuteInSession(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore) (svclang.Result, error) {
	if e.ref != nil {
		return e.ref.ExecuteInSession(svc, req, store)
	}
	p, err := e.Program(svc, svc.Digest())
	if err != nil {
		return svclang.Result{}, err
	}
	a := e.pool.Get().(*arena)
	res := p.run(a, req, store, nil, nil)
	e.pool.Put(a)
	return res, nil
}

// ObserveFunc receives one sink event of an observed execution, in
// program order: the sink's ID and declared kind, whether the sink is
// silent, and the observed value's characters. The rune slice is a view
// into VM scratch memory that is valid only for the duration of the
// call — observers must derive what they need (a fingerprint, a copy)
// before returning, and must not retain or mutate the slice.
type ObserveFunc func(sinkID int, kind svclang.SinkKind, silent bool, chars []rune)

// Binding is one service bound for a run of observed executions: its
// program, looked up once, and one pooled arena that every execution
// reuses. The differential pentester binds each service once per
// Analyze call and streams every probe through the binding, so a probe
// neither touches the engine's program cache nor its arena pool. The
// zero value is unbound; a Binding is not safe for concurrent use.
type Binding struct {
	eng  *Engine
	svc  *svclang.Service
	prog *Program // nil on a reference engine
	a    *arena
}

// Bind binds svc, whose digest is d, to b, compiling it on first use.
// Each Bind must be followed by a Release before b is bound again. A
// reference engine sends every execution of the binding to its backend
// instead.
func (e *Engine) Bind(b *Binding, svc *svclang.Service, d svclang.Digest) error {
	if e.ref != nil {
		*b = Binding{eng: e, svc: svc}
		return nil
	}
	p, err := e.Program(svc, d)
	if err != nil {
		return err
	}
	*b = Binding{eng: e, svc: svc, prog: p, a: e.pool.Get().(*arena)}
	return nil
}

// Release returns the binding's arena to its engine's pool and unbinds
// b.
func (b *Binding) Release() {
	if b.a != nil {
		b.eng.pool.Put(b.a)
	}
	*b = Binding{}
}

// Observe runs the bound service and streams every sink event to fn
// instead of materialising a Result — the allocation-free twin of
// ExecuteInSession for callers that only inspect sink values (the
// differential pentester). The event stream, the session-store effects
// and the returned rejection flag are exactly those of
// ExecuteInSession; only the value representation differs. Like the
// interpreter, a rejection does not retract the events streamed before
// it — callers that want HTTP-400 semantics discard on rejected=true.
func (b *Binding) Observe(req svclang.Request, store *svclang.SessionStore, fn ObserveFunc) (rejected bool, err error) {
	if b.prog == nil {
		res, err := b.eng.ref.ExecuteInSession(b.svc, req, store)
		if err != nil {
			return false, err
		}
		for _, ev := range res.Events {
			fn(ev.SinkID, ev.Kind, ev.Silent, ev.Value.Runes())
		}
		return res.Rejected, nil
	}
	return b.prog.run(b.a, req, store, fn, nil).Rejected, nil
}

// Analyze derives ground truth for svc, whose digest is d, with the
// influence-guided oracle search, every probe run on the VM and judged
// through the streaming probe path, memoised in the process-wide
// content-addressed oracle cache (oraclecache.go). A reference engine
// derives independently and bypasses the cache, so a cached VM result
// can never mask a divergence.
func (e *Engine) Analyze(svc *svclang.Service, d svclang.Digest) ([]svclang.GroundTruth, error) {
	if e.ref != nil {
		return e.ref.Analyze(svc)
	}
	return e.oracleLookup(svc, d)
}

// derive runs the pruned search over svc, whose digest is d. The first
// probe binds the service, and every probe runs through that one
// binding: sink events are judged for structural taint directly on the
// arena's packed values, so a derivation looks its program up once and
// materialises nothing per probe. An invalid service fails the search's
// own validation before any probe.
func (e *Engine) derive(svc *svclang.Service, d svclang.Digest) ([]svclang.GroundTruth, error) {
	var b Binding
	defer b.Release()
	return svclang.AnalyzeProbing(svc, func(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, obs svclang.ProbeObserver) error {
		if b.prog == nil {
			if err := e.Bind(&b, svc, d); err != nil {
				return err
			}
		}
		b.prog.run(b.a, req, store, nil, obs)
		return nil
	})
}
