package telemetry

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	if r.Counter("c_total", "again") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets = %v / %v", bounds, counts)
	}
	// 0.05 and 0.1 land in le=0.1 (inclusive upper bound), 0.5 in le=1,
	// 2 in le=10, 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge reusing a counter name accepted")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Gauge("zz_depth", "depth").Set(3)
		r.Counter("aa_total", "total").Add(2)
		h := r.Histogram("mm_seconds", "latency", 0.5, 5)
		h.Observe(0.2)
		h.Observe(7)
		return r
	}
	a, b := build().Snapshot(), build().Snapshot()
	if a != b {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
	ia := strings.Index(a, "aa_total")
	im := strings.Index(a, "mm_seconds")
	iz := strings.Index(a, "zz_depth")
	if !(ia < im && im < iz) {
		t.Fatalf("snapshot not name-sorted:\n%s", a)
	}
	for _, want := range []string{
		"# TYPE aa_total counter\naa_total 2\n",
		"# TYPE zz_depth gauge\nzz_depth 3\n",
		`mm_seconds_bucket{le="0.5"} 1`,
		`mm_seconds_bucket{le="5"} 1`,
		`mm_seconds_bucket{le="+Inf"} 2`,
		"mm_seconds_sum 7.2\n",
		"mm_seconds_count 2\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %q:\n%s", want, a)
		}
	}
}

// TestConcurrentUpdates drives every metric kind from many goroutines;
// the race detector is the assertion, plus exact final counts (no lost
// updates, including the CAS-summed histogram).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", 1, 10)
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Value() != goroutines*each {
		t.Fatalf("counter lost updates: %d", c.Value())
	}
	if g.Value() != goroutines*each {
		t.Fatalf("gauge lost updates: %d", g.Value())
	}
	if h.Count() != goroutines*each {
		t.Fatalf("histogram lost observations: %d", h.Count())
	}
	if got, want := h.Sum(), 0.5*goroutines*each; math.Abs(got-want) > 1e-9 {
		t.Fatalf("histogram sum = %g, want %g (lost CAS updates)", got, want)
	}
}

// TestCounterFuncReadsSourceGrowth pins the scrape-time counter: it
// excludes source growth from before registration, tracks the source
// afterwards without any fold call, and renders as a plain counter.
func TestCounterFuncReadsSourceGrowth(t *testing.T) {
	var src atomic.Uint64
	src.Add(40) // growth before registration belongs to someone else
	r := NewRegistry()
	c := r.CounterFunc("src_total", "a sourced counter", src.Load)
	if c.Value() != 0 {
		t.Fatalf("fresh sourced counter = %d, want 0", c.Value())
	}
	src.Add(3)
	if c.Value() != 3 {
		t.Fatalf("sourced counter = %d, want 3", c.Value())
	}
	src.Add(2)
	if got, want := r.Snapshot(), "# HELP src_total a sourced counter\n# TYPE src_total counter\nsrc_total 5\n"; got != want {
		t.Fatalf("snapshot = %q, want %q", got, want)
	}
}

func TestCounterFuncIdempotentByName(t *testing.T) {
	var a, b atomic.Uint64
	r := NewRegistry()
	c := r.CounterFunc("src_total", "first", a.Load)
	if r.CounterFunc("src_total", "second", b.Load) != c {
		t.Fatal("second CounterFunc returned a different counter")
	}
	if r.Counter("src_total", "") != c {
		t.Fatal("Counter on a sourced name returned a different counter")
	}
	a.Add(1)
	b.Add(10)
	if c.Value() != 1 {
		t.Fatalf("counter = %d, want the first source's growth 1", c.Value())
	}
}

func TestCounterFuncKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("sourced counter reusing a gauge name accepted")
		}
	}()
	r.CounterFunc("x", "", func() uint64 { return 0 })
}

// TestOperationalHandlers pins the bytes every daemon role serves on its
// health and metrics endpoints.
func TestOperationalHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Inc()
	const plain = "text/plain; charset=utf-8"
	for _, tc := range []struct {
		name        string
		h           http.Handler
		code        int
		contentType string
		body        string
	}{
		{"live", http.HandlerFunc(Live), http.StatusOK, plain, "ok\n"},
		{"ready", Ready(func() bool { return true }), http.StatusOK, plain, "ok\n"},
		{"draining", Ready(func() bool { return false }), http.StatusServiceUnavailable, plain, "draining\n"},
		{"metrics", r, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", r.Snapshot()},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if ct := rec.Header().Get("Content-Type"); rec.Code != tc.code || ct != tc.contentType || rec.Body.String() != tc.body {
			t.Errorf("%s = %d %q %q, want %d %q %q", tc.name, rec.Code, ct, rec.Body.String(), tc.code, tc.contentType, tc.body)
		}
	}
}
