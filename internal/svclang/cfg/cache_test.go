package cfg_test

import (
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
)

func cacheTestService(t *testing.T) *svclang.Service {
	t.Helper()
	svc, err := svclang.ParseOne(`
service CacheFixture
  param id
  var q
  if matches(id, alnum)
    q = concat("SELECT ", id)
  end
  sink sql q
end
`)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestCacheSharesGraphPerKey(t *testing.T) {
	svc := cacheTestService(t)
	c := cfg.NewCache()
	opts := cfg.Options{PruneConstantBranches: true}
	g1 := c.Build(svc, svc.Digest(), opts)
	g2 := c.Build(svc, svc.Digest(), opts)
	if g1 != g2 {
		t.Fatal("same (service, options) built two graphs")
	}
	if g3 := c.Build(svc, svc.Digest(), cfg.Options{}); g3 == g1 {
		t.Fatal("different options shared a graph")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// TestCacheSharesGraphAcrossRenamedCopies: the cache is keyed by the
// body, so a renamed copy of a service reuses its graph, and a one-token
// change does not.
func TestCacheSharesGraphAcrossRenamedCopies(t *testing.T) {
	svc := cacheTestService(t)
	c := cfg.NewCache()
	opts := cfg.Options{PruneConstantBranches: true}
	g := c.Build(svc, svc.Digest(), opts)
	renamed := *svc
	renamed.Name = "Renamed"
	if c.Build(&renamed, renamed.Digest(), opts) != g {
		t.Fatal("a renamed copy lowered a graph of its own")
	}
	changed := *svc
	changed.Params = []string{"other"}
	if c.Build(&changed, changed.Digest(), opts) == g {
		t.Fatal("a service with another parameter name shared the graph")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

func TestCacheGraphMatchesDirectBuild(t *testing.T) {
	svc := cacheTestService(t)
	opts := cfg.Options{SkipLoops: true}
	cached := cfg.NewCache().Build(svc, svc.Digest(), opts)
	direct := cfg.Build(svc, opts)
	if len(cached.Blocks) != len(direct.Blocks) || cached.Service != direct.Service {
		t.Fatal("cached graph differs from a direct Build")
	}
}

func TestNilCacheFallsThrough(t *testing.T) {
	svc := cacheTestService(t)
	var c *cfg.Cache
	if g := c.Build(svc, svc.Digest(), cfg.Options{}); g == nil || len(g.Blocks) == 0 {
		t.Fatal("nil cache did not build")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("nil cache reported stats")
	}
}

// TestCacheConcurrentMissesAreCollapsed races many goroutines at one key:
// exactly one Build must happen (deterministic miss count) and everyone
// must observe the same graph pointer.
func TestCacheConcurrentMissesAreCollapsed(t *testing.T) {
	svc := cacheTestService(t)
	c := cfg.NewCache()
	const goroutines = 16
	graphs := make([]*cfg.Graph, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = c.Build(svc, svc.Digest(), cfg.Options{})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent builders observed different graphs")
		}
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (singleflight per key)", misses)
	}
	if hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", hits, goroutines-1)
	}
}

func TestCacheTotalsMonotone(t *testing.T) {
	h0, m0 := cfg.CacheTotals()
	c := cfg.NewCache()
	svc := cacheTestService(t)
	c.Build(svc, svc.Digest(), cfg.Options{})
	c.Build(svc, svc.Digest(), cfg.Options{})
	h1, m1 := cfg.CacheTotals()
	if h1 < h0+1 || m1 < m0+1 {
		t.Fatalf("totals did not advance: (%d,%d) -> (%d,%d)", h0, m0, h1, m1)
	}
}
