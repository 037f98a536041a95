package workpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		for _, n := range []int{0, 1, 7, 100} {
			b := New(workers)
			counts := make([]atomic.Int32, max(n, 1))
			err := b.ForEach(n, func(_, i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachSerialBudgetRunsInline(t *testing.T) {
	b := New(1)
	var order []int
	err := b.ForEach(50, func(lane, i int) error {
		if lane != 0 {
			t.Fatalf("serial budget used lane %d", lane)
		}
		order = append(order, i) // no locking: must be single-goroutine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order at %d: %v", i, order)
		}
	}
}

func TestForEachLanesAreExclusive(t *testing.T) {
	// Two tasks in the same lane must never run concurrently: per-lane
	// scratch buffers rely on it.
	const workers = 4
	b := New(workers)
	busy := make([]atomic.Bool, workers)
	err := b.ForEach(200, func(lane, i int) error {
		if !busy[lane].CompareAndSwap(false, true) {
			return fmt.Errorf("lane %d reentered", lane)
		}
		defer busy[lane].Store(false)
		if lane < 0 || lane >= workers {
			return fmt.Errorf("lane %d out of range", lane)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Whatever the budget, ForEach must return what a serial loop
	// returns: the first failure's error, with every index below it run.
	const n, repeats = 64, 300
	for _, workers := range []int{1, 2, 4, 13} {
		b := New(workers)
		for rep := 0; rep < repeats; rep++ {
			k := rep % (n - 4)
			ran := make([]atomic.Bool, n)
			err := b.ForEach(n, func(_, i int) error {
				runtime.Gosched() // let the other lanes interleave
				ran[i].Store(true)
				if i >= k && (i-k)%3 == 0 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("index %d", k); err == nil || err.Error() != want {
				t.Fatalf("workers=%d k=%d: err = %v, want %q", workers, k, err, want)
			}
			for i := 0; i < k; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d k=%d: index %d below the failure did not run", workers, k, i)
				}
			}
		}
	}
}

func TestForEachAllocatesNothingProportionalToN(t *testing.T) {
	b := New(2)
	bytesFor := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.ForEach(n, func(_, _ int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bytesFor(10) // warm up
	small, large := bytesFor(10), bytesFor(1_000_000)
	if large > small+4<<10 {
		t.Fatalf("ForEach(1e6) allocated %d bytes, ForEach(10) %d: allocation grows with n", large, small)
	}
}

func TestForEachErrorStopsRemainingWork(t *testing.T) {
	b := New(2)
	var ran atomic.Int32
	boom := errors.New("boom")
	err := b.ForEach(1000, func(_, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got == 1000 {
		t.Fatal("failure did not skip any remaining work")
	}
}

func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	b := New(4)
	var total atomic.Int32
	err := b.ForEach(8, func(_, i int) error {
		// Each outer task fans out again on the same budget. With
		// caller-runs + try-acquire this runs inline when tokens are
		// gone, so it must always terminate.
		return b.ForEach(8, func(_, j int) error {
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 64 {
		t.Fatalf("ran %d inner tasks, want 64", total.Load())
	}
}

func TestConcurrentForEachSharesBudget(t *testing.T) {
	const workers = 3
	b := New(workers)
	var live, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = b.ForEach(100, func(_, i int) error {
				n := live.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				live.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	// Each concurrent ForEach caller is a worker of its own; helpers are
	// bounded by the shared token pool.
	maxLive := int32(4 + (workers - 1))
	if peak.Load() > maxLive {
		t.Fatalf("peak concurrency %d exceeds callers+tokens bound %d", peak.Load(), maxLive)
	}
}

func TestNewDefaultsAndWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) produced an unusable budget")
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("Workers() = %d, want 7", got)
	}
}

// TestDistributedFanOutSharesBudget models the distributed execution
// topology on one Budget: several concurrent "shard executors" (worker
// processes co-hosted in one process, as the dist tests do) each run a
// campaign ForEach over tools that nests a per-tool ForEach over cases,
// while the coordinator's merge ForEach runs over result rows at the
// same time. Three levels of fan-out sharing one token pool must
// terminate (caller-runs + try-acquire), cover every index, and stay
// within the callers+tokens concurrency bound.
func TestDistributedFanOutSharesBudget(t *testing.T) {
	const (
		workers = 3
		shards  = 4
		tools   = 4
		cases   = 8
		rows    = 16
	)
	b := New(workers)
	var cells, merged atomic.Int32
	var live, peak atomic.Int32
	enter := func() {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		live.Add(-1)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A shard execution: campaign fan-out over tools, each
				// tool fanning out again over its case range.
				_ = b.ForEach(tools, func(_, _ int) error {
					return b.ForEach(cases, func(_, _ int) error {
						enter()
						cells.Add(1)
						return nil
					})
				})
			}()
		}
		// The coordinator merge runs concurrently with the shard work.
		_ = b.ForEach(rows, func(_, _ int) error {
			enter()
			merged.Add(1)
			return nil
		})
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested distributed fan-out deadlocked")
	}

	if got := cells.Load(); got != shards*tools*cases {
		t.Fatalf("executed %d cells, want %d", got, shards*tools*cases)
	}
	if got := merged.Load(); got != rows {
		t.Fatalf("merged %d rows, want %d", got, rows)
	}
	// shards executors + 1 merge caller are workers of their own; helper
	// goroutines are bounded by the shared token pool.
	if maxLive := int32(shards + 1 + (workers - 1)); peak.Load() > maxLive {
		t.Fatalf("peak concurrency %d exceeds callers+tokens bound %d", peak.Load(), maxLive)
	}
}
