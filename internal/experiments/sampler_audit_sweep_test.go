//go:build audit

package experiments

import "testing"

// TestSamplerAuditDefaultSweep runs the sampler audit on the published
// configuration at seeds 1–20 and reports how many cells fall outside
// their bounds. It takes tens of seconds, so it sits behind a build tag:
//
//	go test -tags audit -run TestSamplerAuditDefaultSweep -v ./internal/experiments
func TestSamplerAuditDefaultSweep(t *testing.T) {
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	cells, outside := samplerAudit(t, DefaultConfig(), seeds)
	t.Logf("%d of %d cells outside their Monte Carlo bound", outside, cells)
	if outside > 0 {
		t.Fail()
	}
}

// TestMetricPropAuditDefaultSweep runs the metric-property audit on the
// published configuration at seeds 1–20: every stability and
// discrimination value against the old sampler, and every verdict that
// reads the profiles on both samplers.
//
//	go test -tags audit -run TestMetricPropAuditDefaultSweep -v ./internal/experiments
func TestMetricPropAuditDefaultSweep(t *testing.T) {
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	values, outside, lost := propAudit(t, DefaultConfig(), seeds)
	t.Logf("%d of %d values outside their Monte Carlo bound; verdicts lost: %v", outside, values, lost)
	if outside > 0 || len(lost) > 0 {
		t.Fail()
	}
}
