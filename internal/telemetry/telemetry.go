// Package telemetry is a tiny, stdlib-only metrics substrate for the
// serving layer: atomic counters and gauges, fixed-bucket histograms,
// and a registry with a deterministic text snapshot (Prometheus-style
// exposition format, names sorted). It carries the /metrics endpoint of
// cmd/vdserved and is built so the harness hot path can be instrumented
// later without pulling in a dependency. The operational handlers every
// daemon role serves — liveness, readiness and /metrics — live here too
// (see Live, Ready and Registry.ServeHTTP).
//
// All operations are safe for concurrent use and allocation-free on the
// update path (histogram observation is a bucket search plus a few
// atomic adds).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. It either counts its
// own Inc/Add calls or, when built by Registry.CounterFunc, reads an
// external monotone source at scrape time.
type Counter struct {
	v atomic.Uint64

	// src and base are set once, by CounterFunc, before the counter is
	// shared: Value reports src() - base.
	src  func() uint64
	base uint64
}

// Inc adds one. Calling it on a counter built by CounterFunc is a
// programming error: Value reads the source and ignores the increment.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up). Like Inc,
// it must not be called on a counter built by CounterFunc.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.src != nil {
		return c.src() - c.base
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over float64 observations. The
// bucket bounds are inclusive upper bounds, ascending; observations above
// the last bound land in the implicit +Inf bucket. Counts, the running
// sum and the observation count are all atomics, so snapshots taken
// under concurrent observation are internally consistent per field (not
// across fields — good enough for monitoring, by design).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// It panics on empty or unsorted bounds: bucket layouts are compile-time
// decisions, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %g after %g", bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the bounds and the per-bucket (non-cumulative) counts;
// the final count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Registry holds named metrics and renders them as a deterministic text
// snapshot. Registration is idempotent by name: asking twice for the
// same counter returns the same counter, so call sites need no shared
// setup phase.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. It panics when the name is already a different metric kind.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// CounterFunc returns the counter with the given name, creating it on
// first use as a view of the monotone source fn: fn is read once now as
// the baseline, and again whenever the counter's Value or the registry's
// Snapshot is taken, so the counter reports only the growth since
// registration. Registration is idempotent by name and the first one
// wins: a later CounterFunc or Counter call on the name returns the
// same counter. Like Counter, it panics when the name is already a
// different metric kind.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{src: fn, base: fn()}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bounds on first use (later bounds are ignored: the first
// registration wins).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.mustBeFree(name, "histogram")
	h := NewHistogram(bounds...)
	r.histograms[name] = h
	r.help[name] = help
	return h
}

// mustBeFree panics when name is already registered as another kind;
// callers hold r.mu.
func (r *Registry) mustBeFree(name, kind string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	if c || g || h {
		panic(fmt.Sprintf("telemetry: %s %q collides with an existing metric of another kind", kind, name))
	}
}

// Snapshot renders every metric in Prometheus-style text exposition
// format, sorted by metric name, so two snapshots of equal state are
// byte-identical.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.help))
	for name := range r.help {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		if help := r.help[name]; help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", name, help)
		}
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value())
		case r.gauges[name] != nil:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Value())
		case r.histograms[name] != nil:
			h := r.histograms[name]
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", name)
			bounds, counts := h.Buckets()
			var cum uint64
			for i, b := range bounds {
				cum += counts[i]
				fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
			}
			cum += counts[len(bounds)]
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&sb, "%s_sum %s\n", name, formatBound(h.Sum()))
			fmt.Fprintf(&sb, "%s_count %d\n", name, h.Count())
		}
	}
	return sb.String()
}

// ServeHTTP serves the registry's Snapshot as the /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, r.Snapshot())
}

// Live is the liveness handler: a process that can answer is alive.
func Live(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// Ready returns the readiness handler: 200 "ok" while ready reports
// true, 503 "draining" otherwise, so health-checkers stop routing work
// to a process that is shutting down or not yet useful.
func Ready(ready func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		_, _ = io.WriteString(w, "ok\n")
	}
}

// formatBound renders a float compactly and unambiguously ("0.5", "10").
func formatBound(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
