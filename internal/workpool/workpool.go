// Package workpool is the one parallel loop of the deterministic
// packages: the campaign harness's (tool, case) cells, the experiment
// drivers, E7's tool pairs and metricprop catalogue analysis all run on
// Budget.ForEach. It deliberately contains no
// scheduling cleverness that could affect results: callers decide the
// task decomposition and where every task's output lands; the pool only
// decides *when* each task runs. On failure it returns the error a
// serial loop would return first, at every budget size.
//
// The design is caller-runs with try-acquire: the goroutine that calls
// ForEach always executes tasks itself, and helper goroutines are added
// only when a budget token is free at that moment. Nested ForEach calls
// therefore never deadlock — a task that itself fans out simply runs its
// sub-tasks inline when the budget is exhausted — and the number of live
// worker goroutines per Budget never exceeds the configured size.
package workpool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a counting worker budget. The zero value is not usable; use
// New. A Budget may be shared across concurrent and nested ForEach calls.
type Budget struct {
	// tokens holds workers-1 helper slots; the caller of ForEach is the
	// implicit extra worker, so total concurrency is bounded by workers.
	tokens  chan struct{}
	workers int
}

// New returns a budget of the given size. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 yields a budget that never spawns
// a goroutine (ForEach runs inline, in index order).
func New(workers int) *Budget {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Budget{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Workers returns the budget size.
func (b *Budget) Workers() int { return b.workers }

// ForEach runs fn for every index in [0, n), distributing indices over
// the calling goroutine and up to Workers()-1 helpers. fn receives the
// index and a lane number in [0, Workers()): each lane processes its
// indices sequentially, so per-lane scratch state (indexed by lane)
// needs no locking. Lane 0 is always the caller.
//
// At every budget size, the error returned is the one a serial loop
// over [0, n) returns first: the error of the lowest failed index, with
// every index below it run. Indices are claimed in increasing order and
// a lane stops once it claims an index above the lowest failure kept so
// far; since claims only grow and the kept index only shrinks, no index
// below the returned one is ever skipped. Indices above it may or may
// not have run. Callers that need deterministic outputs must write each
// index's result into a dedicated slot; ForEach guarantees nothing about
// completion order. It allocates nothing proportional to n.
func (b *Budget) ForEach(n int, fn func(lane, i int) error) error {
	if n <= 0 {
		return nil
	}
	var next atomic.Int64
	var first lowestErr
	first.at.Store(math.MaxInt64)
	runLane := func(lane int) {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) || i > first.at.Load() {
				return
			}
			if err := fn(lane, int(i)); err != nil {
				first.keep(i, err)
			}
		}
	}

	// Spawn helpers only for tokens that are free right now; never block
	// waiting for one (a nested ForEach would otherwise deadlock against
	// its own ancestors holding the tokens).
	var wg sync.WaitGroup
spawn:
	for lane := 1; lane < min(n, b.workers); lane++ {
		select {
		case <-b.tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { b.tokens <- struct{}{} }()
				runLane(lane)
			}()
		default:
			break spawn // budget exhausted; stop trying
		}
	}
	runLane(0)
	wg.Wait()
	return first.err
}

// lowestErr keeps the error of the lowest failed index. at is that
// index, math.MaxInt64 while none is kept; lanes read it without the
// lock to stop claiming indices above it.
type lowestErr struct {
	mu  sync.Mutex
	at  atomic.Int64
	err error
}

// keep records err for index i unless a lower index's error is already
// kept.
func (f *lowestErr) keep(i int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < f.at.Load() {
		f.at.Store(i)
		f.err = err
	}
}
