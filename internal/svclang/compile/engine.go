package compile

import (
	"sync"
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// Engine is the execution seam the rest of the benchmark runs through: a
// compiled-program cache plus an arena pool. One engine is shared by
// every tool in a campaign (the harness binds it like the cfg compile
// cache), so each service compiles exactly once no matter how many
// probes hit it.
//
// The two mode fields select the reference implementations the
// differential suites compare against: interpret delegates execution to
// the tree-walking interpreter, exhaustive derives ground truth with the
// unpruned oracle search. Production engines (NewEngine) set neither;
// NewReferenceEngine sets both.
type Engine struct {
	interpret  bool
	exhaustive bool

	mu    sync.Mutex
	progs map[*svclang.Service]*progEntry

	pool sync.Pool

	hits   atomic.Uint64
	misses atomic.Uint64
}

// progEntry singleflights compilation per service, mirroring cfg.Cache:
// the first caller compiles under the entry's once while the engine map
// stays unlocked for other services.
type progEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// NewEngine returns the execution engine every campaign and corpus runs
// on: the bytecode VM, with ground truth derived by the influence-guided
// (pruned) oracle search.
func NewEngine() *Engine { return newEngine(false, false) }

// NewReferenceEngine returns an engine that executes services on the
// reference tree-walking interpreter and derives ground truth with the
// exhaustive oracle search. It exists only for tests: the differential
// suites run a campaign or corpus through it and require the result
// deep-equal to the NewEngine one. Both engines produce identical
// outputs, so no production path has a reason to pay for the reference
// one; vdlint's compiledexec analyzer rejects any non-test call.
func NewReferenceEngine() *Engine { return newEngine(true, true) }

func newEngine(interpret, exhaustive bool) *Engine {
	e := &Engine{interpret: interpret, exhaustive: exhaustive, progs: map[*svclang.Service]*progEntry{}}
	e.pool.New = func() any { return new(arena) }
	return e
}

// Program returns the compiled program for svc, compiling on first use.
func (e *Engine) Program(svc *svclang.Service) (*Program, error) {
	e.mu.Lock()
	ent, ok := e.progs[svc]
	if !ok {
		ent = &progEntry{}
		e.progs[svc] = ent
	}
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	ent.once.Do(func() {
		ent.prog, ent.err = Compile(svc)
	})
	return ent.prog, ent.err
}

// Stats returns the program-cache hit/miss counters.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Execute runs the service on one request with a fresh session store,
// like svclang.Execute.
func (e *Engine) Execute(svc *svclang.Service, req svclang.Request) (svclang.Result, error) {
	return e.ExecuteInSession(svc, req, nil)
}

// ExecuteInSession runs the service against an existing session store
// (nil for a fresh one), like svclang.ExecuteInSession. Compilation
// errors are exactly the interpreter's validation errors — Compile
// front-loads the Validate call the interpreter repeats per request.
func (e *Engine) ExecuteInSession(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore) (svclang.Result, error) {
	if e.interpret {
		return svclang.ExecuteInSession(svc, req, store)
	}
	p, err := e.Program(svc)
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

// Observe runs the service and streams every sink event to fn instead
// of materialising a Result — the allocation-free twin of
// ExecuteInSession for callers that only inspect sink values (the
// differential pentester). The event stream, the session-store effects
// and the returned rejection flag are exactly those of
// ExecuteInSession; only the value representation differs. Like the
// interpreter, a rejection does not retract the events streamed before
// it — callers that want HTTP-400 semantics discard on rejected=true.
func (e *Engine) Observe(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, fn ObserveFunc) (rejected bool, err error) {
	if e.interpret {
		res, err := svclang.ExecuteInSession(svc, req, store)
		if err != nil {
			return false, err
		}
		for _, ev := range res.Events {
			fn(ev.SinkID, ev.Kind, ev.Silent, ev.Value.Runes())
		}
		return res.Rejected, nil
	}
	p, err := e.Program(svc)
	if err != nil {
		return false, err
	}
	a := e.pool.Get().(*arena)
	res := p.run(a, req, store, fn, nil)
	e.pool.Put(a)
	return res.Rejected, nil
}

// probe is the ProbeFunc the streaming oracle path runs on: sink events
// are judged for structural taint directly on the arena's packed
// values, so deriving ground truth materialises nothing per probe.
func (e *Engine) probe(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, obs svclang.ProbeObserver) error {
	p, err := e.Program(svc)
	if err != nil {
		return err
	}
	a := e.pool.Get().(*arena)
	p.run(a, req, store, nil, obs)
	e.pool.Put(a)
	return nil
}

// Analyze derives ground truth for svc, like svclang.Analyze but with
// every probe executed through this engine — and, on the VM, judged
// through the streaming probe path instead of materialised Results.
// The search is influence-guided except on the reference engine, which
// runs the unpruned exhaustive enumeration. Results are memoised in the
// process-wide content-addressed oracle cache (oraclecache.go), so
// identical service bodies are derived once per mode.
func (e *Engine) Analyze(svc *svclang.Service) ([]svclang.GroundTruth, error) {
	return oracleLookup(svc, e.interpret, e.exhaustive, func() ([]svclang.GroundTruth, error) {
		probe := e.probe
		if e.interpret {
			probe = interpProbe
		}
		if e.exhaustive {
			return svclang.AnalyzeProbingExhaustive(svc, probe)
		}
		return svclang.AnalyzeProbing(svc, probe)
	})
}

// interpProbe adapts the reference interpreter to the oracle's probe
// seam, judging events with the shared structural-taint table; running
// it through AnalyzeProbing is exactly svclang.Analyze.
func interpProbe(svc *svclang.Service, req svclang.Request, store *svclang.SessionStore, obs svclang.ProbeObserver) error {
	res, err := svclang.ExecuteInSession(svc, req, store)
	if err != nil {
		return err
	}
	for _, ev := range res.Events {
		obs(ev.SinkID, ev.Kind, svclang.StructuralTaint(ev.Kind, ev.Value))
	}
	return nil
}
