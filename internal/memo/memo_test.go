package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func sized(s string) int64 { return int64(len(s)) }

// TestBudgetLRUEviction: a byte budget evicts least-recently-used
// entries, Get refreshes recency, Put reports its evictions, and Len
// accounts entries and cost.
func TestBudgetLRUEviction(t *testing.T) {
	c := New[string](100, sized)
	if ev := c.Put("a", string(make([]byte, 40))); ev != 0 {
		t.Fatalf("evicted %d on first put", ev)
	}
	c.Put("b", string(make([]byte, 40)))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if ev := c.Put("c", string(make([]byte, 40))); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if entries, cost := c.Len(); entries != 2 || cost != 80 {
		t.Fatalf("Len = %d entries / %d cost, want 2 / 80", entries, cost)
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

// TestOversizedEntryRefused: an entry costlier than the whole budget is
// not stored, by Put or by Do, and evicts nothing on its way out.
func TestOversizedEntryRefused(t *testing.T) {
	c := New[string](100, sized)
	c.Put("small", "x")
	if ev := c.Put("huge", string(make([]byte, 1000))); ev != 0 {
		t.Fatalf("oversized put evicted %d", ev)
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("entry larger than the whole budget was stored")
	}
	fills := 0
	fill := func(string) (string, error) { fills++; return string(make([]byte, 1000)), nil }
	for i := 0; i < 2; i++ {
		if v, hit, _ := c.Do("huge-fill", fill); hit || len(v) != 1000 {
			t.Fatalf("Do #%d = (%d bytes, hit=%v), want a fresh 1000-byte fill", i, len(v), hit)
		}
	}
	if fills != 2 {
		t.Fatalf("oversized fill ran %d times, want 2 (never stored)", fills)
	}
	if entries, cost := c.Len(); entries != 1 || cost != 1 {
		t.Fatalf("Len = %d / %d, want only the small entry", entries, cost)
	}
	if _, _, evictions := c.Stats(); evictions != 0 {
		t.Fatalf("refusals counted as %d evictions", evictions)
	}
}

// TestNegativeBudgetStoresNothing: a negative budget disables the cache
// for every entry point.
func TestNegativeBudgetStoresNothing(t *testing.T) {
	c := New[string](-1, sized)
	c.Put("x", "x")
	if _, ok := c.Get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	fills := 0
	for i := 0; i < 3; i++ {
		c.Do("y", func(string) (string, error) { fills++; return "y", nil })
	}
	if entries, _ := c.Len(); entries != 0 || fills != 3 {
		t.Fatalf("disabled cache holds %d entries after %d fills, want 0 after 3", entries, fills)
	}
}

// TestConcurrentCallersShareOneFill: N goroutines on one key run one fill;
// the inserter misses and every other caller hits.
func TestConcurrentCallersShareOneFill(t *testing.T) {
	for _, budget := range []int64{0, 8} {
		c := New[int, *int](budget, nil)
		const n = 16
		var fills atomic.Int32
		release := make(chan struct{})
		got := make([]*int, n)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := c.Do(7, func(k int) (*int, error) {
					fills.Add(1)
					<-release
					return &k, nil
				})
				if err != nil {
					t.Error(err)
				}
				got[i] = v
			}()
		}
		close(release)
		wg.Wait()
		if fills.Load() != 1 {
			t.Fatalf("budget %d: %d fills for one key, want 1", budget, fills.Load())
		}
		for i, v := range got {
			if v != got[0] || *v != 7 {
				t.Fatalf("budget %d: caller %d got %p, want the shared %p", budget, i, v, got[0])
			}
		}
		if hits, misses, _ := c.Stats(); misses != 1 || hits != n-1 {
			t.Fatalf("budget %d: hits/misses = %d/%d, want %d/1", budget, hits, misses, n-1)
		}
	}
}

// TestEvictedInFlightEntryCompletes: an entry evicted while its fill runs
// still delivers the filled value to the callers already waiting on it.
func TestEvictedInFlightEntryCompletes(t *testing.T) {
	c := New[string, string](1, nil)
	started, release := make(chan struct{}), make(chan struct{})
	slow := func(k string) (string, error) {
		close(started)
		<-release
		return "filled " + k, nil
	}
	var wg sync.WaitGroup
	results := make([]string, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _ = c.Do("slow", slow)
	}()
	<-started
	// A waiter joins the in-flight fill. Do counts its hit under the lock
	// that hands it the entry, so once the hit shows, the waiter holds the
	// entry and only its wait on the fill remains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var hit bool
		results[1], hit, _ = c.Do("slow", func(string) (string, error) {
			return "", errors.New("waiter must not fill")
		})
		if !hit {
			t.Error("waiter did not join the in-flight fill")
		}
	}()
	for hits, _, _ := c.Stats(); hits == 0; hits, _, _ = c.Stats() {
		runtime.Gosched()
	}
	// Budget 1: inserting another key evicts the in-flight entry.
	if _, _, err := c.Do("other", func(string) (string, error) { return "o", nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want the in-flight entry evicted", evictions)
	}
	close(release)
	wg.Wait()
	for i, r := range results {
		if r != "filled slow" {
			t.Fatalf("caller %d got %q, want the filled value", i, r)
		}
	}
	if _, ok := c.Get("slow"); ok {
		t.Fatal("evicted entry still resident")
	}
}

// TestFillErrorIsMemoised: a failed fill's error is the memoised result
// (fills are pure), and Get does not report it as a value.
func TestFillErrorIsMemoised(t *testing.T) {
	c := New[string, int](0, nil)
	boom := errors.New("boom")
	fills := 0
	fill := func(string) (int, error) { fills++; return 0, boom }
	for i := 0; i < 3; i++ {
		if _, hit, err := c.Do("k", fill); !errors.Is(err, boom) || hit != (i > 0) {
			t.Fatalf("Do #%d = (hit=%v, err=%v), want the memoised error", i, hit, err)
		}
	}
	if fills != 1 {
		t.Fatalf("failing fill ran %d times, want 1", fills)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get reported a failed fill as a value")
	}
}

// TestUnboundedNeverEvicts: budget 0 keeps every entry and prices none.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int](0, func(v int) int64 { return 1 << 40 })
	for i := 0; i < 1000; i++ {
		c.Do(i, func(k int) (int, error) { return k * k, nil })
	}
	c.Put(-1, 1)
	for i := 0; i < 1000; i++ {
		if v, ok := c.Get(i); !ok || v != i*i {
			t.Fatalf("entry %d = (%d, %v), want (%d, true)", i, v, ok, i*i)
		}
	}
	if entries, cost := c.Len(); entries != 1001 || cost != 0 {
		t.Fatalf("Len = %d / %d, want 1001 / 0", entries, cost)
	}
	if hits, misses, evictions := c.Stats(); hits != 0 || misses != 1000 || evictions != 0 {
		t.Fatalf("Stats = %d/%d/%d, want 0/1000/0", hits, misses, evictions)
	}
}

// TestPricedDoChargesAfterFill: with a cost function, Do charges an entry
// once its value exists and evicts down to the budget.
func TestPricedDoChargesAfterFill(t *testing.T) {
	c := New[string](10, sized)
	fill := func(k string) (string, error) { return k, nil }
	c.Do("aaaa", fill)
	c.Do("bbbb", fill)
	c.Do("aaaa", fill) // refresh: bbbb becomes LRU
	c.Do("cccc", fill)
	if _, ok := c.Get("bbbb"); ok {
		t.Fatal("LRU entry survived a priced eviction")
	}
	if entries, cost := c.Len(); entries != 2 || cost != 8 {
		t.Fatalf("Len = %d / %d, want 2 / 8", entries, cost)
	}
}

// TestPanickingFillMemoisesNothing: a fill that panics reaches its own
// caller, leaves no entry behind (bounded or not), and a caller that was
// waiting on it fills again instead of reading a value nobody stored.
func TestPanickingFillMemoisesNothing(t *testing.T) {
	for _, budget := range []int64{0, 4} {
		c := New[int, int](budget, nil)
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() == nil {
					t.Error("the filling caller did not see its panic")
				}
			}()
			c.Do(1, func(int) (int, error) {
				close(started)
				<-release
				panic("fill failed")
			})
		}()
		<-started
		var waited int
		wg.Add(1)
		go func() {
			defer wg.Done()
			waited, _, _ = c.Do(1, func(k int) (int, error) { return 10 * k, nil })
		}()
		for hits, _, _ := c.Stats(); hits == 0; hits, _, _ = c.Stats() {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if waited != 10 {
			t.Fatalf("budget %d: waiter got %d, want its own fill's 10", budget, waited)
		}
		if v, hit, err := c.Do(1, func(int) (int, error) { return -1, nil }); v != 10 || !hit || err != nil {
			t.Fatalf("budget %d: after the refill Do = %d, %v, %v; want the memoised 10", budget, v, hit, err)
		}
		if n, cost := c.Len(); n != 1 || (budget > 0 && cost != 1) {
			t.Fatalf("budget %d: Len = %d entries, cost %d", budget, n, cost)
		}
	}
}
